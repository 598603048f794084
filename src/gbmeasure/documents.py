"""Built-in manifold documents and the icosahedral rotation group.

Each factory returns a plain JSON-serializable dict in the manifold
document format (see README), ready for load().  The shipped examples:

- s2-octahedron: the sphere, eight triangles developed onto the coordinate
  octants (the 2:1 developing onto projective space, trivial holonomy).
- rp2-icosahedral: the projective plane, ten triangles developed onto one
  icosahedral face per antipodal pair.
- t2-grid(k): the square torus R^2 / k Z^2, 2 k^2 triangles developed into
  the affine chart x3 = 1, translation holonomy, with the uniform measure
  on the circle at infinity.
- klein-grid(k): the Klein bottle variant (horizontal glide), k >= 3.
- s1-polygon(m): the circle subdivided into m arcs (odd-dimension case).
"""

from itertools import combinations, product

import numpy as np

from .geom import ProjectiveMap
from .triangulation import _assign_incidences
from ._util import (PointIndex, normalized, points_projectively_equal,
                    projective_closure, scaled_flat)


def rotation_about(axis, theta):
    """Rotation of R^3 about an axis, as a projective map of S^2."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    mat = np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)
    return ProjectiveMap(mat)


def icosahedron_vertices():
    """The 12 unit vertices built from the golden ratio."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    v = np.array([row for a, b in product((1.0, -1.0), (phi, -phi))
                  for row in ([0.0, a, b], [a, b, 0.0], [b, 0.0, a])])
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def icosahedron_faces(verts):
    """The 20 faces as index triples of mutually nearest vertices."""
    d = np.linalg.norm(verts[:, None, :] - verts[None, :, :], axis=2)
    edge = d[d > 1e-9].min()
    adj = np.abs(d - edge) < 1e-6
    faces = [(i, j, k) for i, j, k in combinations(range(len(verts)), 3)
             if adj[i, j] and adj[i, k] and adj[j, k]]
    assert len(faces) == 20
    return faces


def icosahedral_rotation_group():
    """All 60 rotations preserving the icosahedron, as projective maps."""
    verts = icosahedron_vertices()
    faces = icosahedron_faces(verts)
    g5 = rotation_about(verts[0], 2.0 * np.pi / 5.0)
    g3 = rotation_about(verts[list(faces[0])].sum(axis=0), 2.0 * np.pi / 3.0)
    elems = projective_closure([ProjectiveMap.identity(2)],
                               [lambda w, s=s: w.compose(s) for s in (g5, g3)],
                               lambda w: scaled_flat(w.matrix))
    assert len(elems) == 60
    return elems


# ---------------------------------------------------------------------------
# document factories

def s2_octahedron():
    """Six vertices +-e_i, eight triangles developed onto the octants."""
    coords = [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0],
              [-1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]]
    triangles = sorted(tuple(sorted(corner))
                       for corner in product((0, 3), (1, 4), (2, 5)))
    edges = sorted({(i, j) for i in range(6) for j in range(i + 1, 6)
                    if j != i + 3})
    developed = [[coords[v] for v in tri] for tri in triangles]
    doc = {
        "dim": 2,
        "vertices": 6,
        "faces": {"0": [[i] for i in range(6)],
                  "1": [list(e) for e in edges],
                  "2": [list(t) for t in triangles]},
        "developed": developed,
        "holonomy_generators": [],
        "measure": {"type": "round"},
    }
    doc["pairings"] = _shared_chart_pairings(doc)
    return doc


def rp2_icosahedral():
    """Antipodal quotient of the icosahedron: 6 vertices, 15 edges, 10
    triangles, each developed onto one face of the antipodal pair."""
    verts = icosahedron_vertices()
    faces = icosahedron_faces(verts)
    classes = PointIndex()
    cls = [classes.insert(v) for v in verts]   # vertex -> antipodal pair
    assert len(classes.rows) == 6
    seen = {}
    tri_faces, developed = [], []
    for f in faces:
        classes = tuple(sorted(cls[i] for i in f))
        if classes in seen:
            continue
        seen[classes] = f
        order = sorted(f, key=lambda i: cls[i])
        tri_faces.append(list(classes))
        developed.append([verts[i].tolist() for i in order])
    assert len(tri_faces) == 10
    edges = sorted({(a, b) for t in tri_faces
                    for a in t for b in t if a < b})
    assert len(edges) == 15
    doc = {
        "dim": 2,
        "vertices": 6,
        "faces": {"0": [[i] for i in range(6)],
                  "1": [list(e) for e in edges],
                  "2": tri_faces},
        "developed": developed,
        "holonomy_generators": [],
        "measure": {"type": "round"},
    }
    doc["pairings"] = _shared_chart_pairings(doc)
    return doc


def _grid_vertex(k, i, j):
    return (i % k) * k + (j % k)


def t2_grid(k):
    """The square torus from a k x k grid with diagonals: 2 k^2 triangles
    developed into the affine chart x3 = 1, translation holonomy."""
    if k < 2:
        raise ValueError("t2-grid needs k >= 2")
    vid = lambda i, j: _grid_vertex(k, i, j)
    return _grid_document(
        k, vid,
        holonomy=[[[1, 0, k], [0, 1, 0], [0, 0, 1]],
                  [[1, 0, 0], [0, 1, k], [0, 0, 1]]])


def klein_grid(k):
    """The Klein bottle: k x k grid whose horizontal wrap glides
    vertically (j -> -j); needs k >= 3 to be faithful."""
    if k < 3:
        raise ValueError("klein-grid needs k >= 3")

    def vid(i, j):
        wraps, base = divmod(i, k)
        jj = j if wraps % 2 == 0 else -j
        return base * k + (jj % k)

    return _grid_document(
        k, vid,
        holonomy=[[[1, 0, k], [0, -1, 0], [0, 0, 1]],
                  [[1, 0, 0], [0, 1, k], [0, 0, 1]]])


def _grid_document(k, vid, holonomy):
    edges = []
    for j in range(k):
        for i in range(k):
            edges.append((vid(i, j), vid(i + 1, j)))        # horizontal
    for j in range(k):
        for i in range(k):
            edges.append((vid(i, j), vid(i, j + 1)))        # vertical
    for j in range(k):
        for i in range(k):
            edges.append((vid(i, j), vid(i + 1, j + 1)))    # diagonal
    tris, developed = [], []
    for j in range(k):
        for i in range(k):
            tris.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)])
            developed.append([[i, j, 1.0], [i + 1, j, 1.0],
                              [i + 1, j + 1, 1.0]])
            tris.append([vid(i, j), vid(i, j + 1), vid(i + 1, j + 1)])
            developed.append([[i, j, 1.0], [i, j + 1, 1.0],
                              [i + 1, j + 1, 1.0]])
    doc = {
        "dim": 2,
        "vertices": k * k,
        "faces": {"0": [[v] for v in range(k * k)],
                  "1": [list(e) for e in edges],
                  "2": tris},
        "developed": developed,
        "holonomy_generators": holonomy,
        "measure": {"type": "subsphere",
                    "basis": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
    }
    gens = [np.asarray(m, dtype=float) for m in holonomy]
    candidates = [np.eye(3)]
    for g in gens:
        fresh = []
        for c in candidates:
            fresh.append(c @ g)
            fresh.append(c @ np.linalg.inv(g))
        candidates.extend(fresh)
    doc["pairings"] = _shared_chart_pairings(doc, candidates)
    return doc


def s1_polygon(m):
    """The circle subdivided into m arcs of angle 2 pi / m."""
    if m < 3:
        raise ValueError("s1-polygon needs m >= 3")
    angles = [2.0 * np.pi * i / m for i in range(m)]
    pts = [[np.cos(a), np.sin(a)] for a in angles]
    edges = [[i, (i + 1) % m] for i in range(m)]
    developed = [[pts[i], pts[(i + 1) % m]] for i in range(m)]
    return {
        "dim": 1,
        "vertices": m,
        "faces": {"0": [[i] for i in range(m)], "1": edges},
        "developed": developed,
        "holonomy_generators": [],
        "measure": {"type": "round"},
    }


def _shared_chart_pairings(doc, candidate_maps=None):
    """Pairings for every codim-1 face shared by two tops.

    Tries the candidate matrices (default: identity only) until one maps
    the first chart's developed face vertices onto the second's,
    projectively and vertexwise.  The incidences are those load assigns.
    """
    n = doc["dim"]
    faces = [tuple(map(tuple, doc["faces"][str(r)])) for r in range(n + 1)]
    developed = [[normalized(v) for v in rows] for rows in doc["developed"]]
    if candidate_maps is None:
        candidate_maps = [np.eye(n + 1)]
    by_face = {}
    for rec in _assign_incidences(n, faces)[0]:
        if rec.dim == n - 1:
            by_face.setdefault(rec.face, []).append(rec)
    pairings = []
    for idx, recs in sorted(by_face.items()):
        if len(recs) != 2:
            continue
        (ra, rb) = recs
        dev_a, dev_b = developed[ra.top], developed[rb.top]
        for mat in candidate_maps:
            if all(points_projectively_equal(normalized(mat @ dev_a[i]),
                                             dev_b[j])
                   for i, j in zip(ra.positions, rb.positions)):
                pairings.append({"face": idx, "simplex_a": ra.top,
                                 "simplex_b": rb.top,
                                 "matrix": np.asarray(mat,
                                                      dtype=float).tolist()})
                break
    return pairings


BUILTIN_DOCUMENTS = {
    "s2-octahedron": s2_octahedron,
    "rp2-icosahedral": rp2_icosahedral,
    "t2-grid": lambda k=2: t2_grid(int(k)),
    "klein-grid": lambda k=3: klein_grid(int(k)),
    "s1-polygon": lambda m=6: s1_polygon(int(m)),
}


def builtin_document(name, **params):
    if name not in BUILTIN_DOCUMENTS:
        raise KeyError("unknown built-in document %r (have: %s)"
                       % (name, ", ".join(sorted(BUILTIN_DOCUMENTS))))
    return BUILTIN_DOCUMENTS[name](**params)

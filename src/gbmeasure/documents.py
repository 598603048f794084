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
from .triangulation import _assign_incidences, _face_vertices, _walls
from ._util import (MATCH_TOL, PointIndex, projective_closure,
                    projective_gaps, row_norms, scaled_flat)


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
    return _surface(6, edges, triangles, developed, [], {"type": "round"})


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
    return _surface(6, edges, tri_faces, developed, [], {"type": "round"})


def t2_grid(k):
    """The square torus from a k x k grid with diagonals: 2 k^2 triangles
    developed into the affine chart x3 = 1, translation holonomy."""
    if k < 2:
        raise ValueError("t2-grid needs k >= 2")
    return _grid_document(
        k, lambda i, j: (i % k) * k + (j % k),
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
    cells = [(i, j) for j in range(k) for i in range(k)]
    # horizontal, then vertical, then diagonal edges of every cell
    edges = [[vid(i, j), vid(i + di, j + dj)]
             for di, dj in ((1, 0), (0, 1), (1, 1)) for i, j in cells]
    # each cell's lower and upper triangle, developed at its grid corners
    corners = [tri for i, j in cells
               for tri in (((i, j), (i + 1, j), (i + 1, j + 1)),
                           ((i, j), (i, j + 1), (i + 1, j + 1)))]
    tris = [[vid(*c) for c in tri] for tri in corners]
    developed = [[[a, b, 1.0] for a, b in tri] for tri in corners]
    candidates = [np.eye(3)]
    for g in (np.asarray(m, dtype=float) for m in holonomy):
        candidates += [c @ h for c in candidates
                       for h in (g, np.linalg.inv(g))]
    return _surface(k * k, edges, tris, developed, holonomy,
                    {"type": "subsphere",
                     "basis": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
                    candidates)


def _surface(n_vertices, edges, triangles, developed, holonomy, measure,
             candidates=None):
    """A surface document, paired by _shared_chart_pairings."""
    doc = {
        "dim": 2,
        "vertices": n_vertices,
        "faces": {"0": [[v] for v in range(n_vertices)],
                  "1": [list(e) for e in edges],
                  "2": [list(t) for t in triangles]},
        "developed": developed,
        "holonomy_generators": holonomy,
        "measure": measure,
    }
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
    """Pairings for every codim-1 face shared by two tops: the first
    candidate matrix (default: identity only) that maps the first chart's
    developed face vertices onto the second's, projectively and vertexwise,
    every face and candidate in one stacked pass over the codim-1 table
    that load keeps (_walls).
    """
    n = doc["dim"]
    faces = [tuple(map(tuple, doc["faces"][str(r)])) for r in range(n + 1)]
    verts = np.array(doc["developed"], dtype=float)
    verts /= row_norms(verts)[..., None]
    cands = np.array([np.eye(n + 1)] if candidate_maps is None
                     else candidate_maps, dtype=float)
    walls = _walls(n, faces, _assign_incidences(n, faces, dims=(n - 1,))[0])
    shared = [(idx, recs) for idx, recs in enumerate(walls) if len(recs) == 2]
    _, recs = zip(*shared)
    # (face, candidate, slot): each candidate maps the first chart's face
    # vertices, compared with the second chart's up to sign
    gaps = projective_gaps(
        _face_vertices(verts, [ra for ra, _ in recs])[:, None], cands,
        _face_vertices(verts, [rb for _, rb in recs])[:, None])
    match = np.all(gaps <= MATCH_TOL, axis=2)
    listed = cands.tolist()
    return [{"face": idx, "simplex_a": ra.top, "simplex_b": rb.top,
             "matrix": [row[:] for row in listed[c]]}
            for (idx, (ra, rb)), c, hit in zip(shared, match.argmax(axis=1),
                                              match.any(axis=1)) if hit]


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

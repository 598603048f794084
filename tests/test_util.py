"""The hashed point index and the closure against plain linear scans."""

import numpy as np
import pytest

from gbmeasure import AtomicMeasure, finite_orbit_measure, load
from gbmeasure._util import (MATCH_TOL, PointIndex, normalized,
                             matrices_projectively_equal,
                             points_projectively_equal)
from gbmeasure.documents import (builtin_document, icosahedral_rotation_group,
                                 icosahedron_faces, icosahedron_vertices,
                                 rotation_about)
from gbmeasure.geom import ProjectiveMap
from gbmeasure.measure import ATOM_TOL
from gbmeasure.triangulation import _holonomy_words

EDGE = 999.5 * 2.0 ** -16   # a coordinate exactly on a cell edge


def scan(rows, x, tol, projective):
    """Nearest row within tol, lowest index on ties, or None."""
    d = np.linalg.norm(rows - x, axis=1)
    if projective:
        d = np.minimum(d, np.linalg.norm(rows + x, axis=1))
    i = int(np.argmin(d))
    return i if d[i] <= tol else None


def reference_closure(seeds, steps, equal, depth=None):
    """Breadth-first closure, each candidate tested against every item."""
    items, frontier, level = list(seeds), list(seeds), 0
    while frontier and level != depth:
        fresh = []
        for item in frontier:
            for step in steps:
                nxt = step(item)
                if not any(equal(nxt, seen) for seen in items):
                    items.append(nxt)
                    fresh.append(nxt)
        frontier, level = fresh, level + 1
    return items


def stored_rows(width, tol, rng):
    """Random unit rows, rows with coordinates 0, +-1 and on a cell edge,
    an exact duplicate and two near-duplicates half a tol apart."""
    rows = list(rng.normal(size=(40, width)))
    rows = [r / np.linalg.norm(r) for r in rows]
    rows += list(np.eye(width)) + list(-np.eye(width))
    edge = np.zeros(width)
    edge[0], edge[1] = EDGE, np.sqrt(1.0 - EDGE ** 2)
    rows += [edge, -edge, rows[3], rows[5] + 0.5 * tol * np.eye(width)[0],
             rows[5] - 0.5 * tol * np.eye(width)[1]]
    return np.array(rows)


@pytest.mark.parametrize("width", [2, 3, 9, 16])
@pytest.mark.parametrize("tol", [MATCH_TOL, ATOM_TOL, 1e-4])
@pytest.mark.parametrize("projective", [True, False])
def test_index_finds_what_a_scan_finds(width, tol, projective):
    rng = np.random.default_rng(width)
    rows = stored_rows(width, tol, rng)
    index = PointIndex(tol, projective=projective)
    for r in rows:
        index.add(r)
    queries = []
    for r in rows:
        u = rng.normal(size=width)
        u /= np.linalg.norm(u)
        queries += [r, -r, r + 0.5 * tol * u, r + 2.0 * tol * u,
                    -r - 0.5 * tol * u]
        queries += [r + s * tol * e for e in np.eye(width)
                    for s in (-0.5, 0.5)]
    queries += list(rng.normal(size=(20, width)))
    found = [index.find(q) for q in queries]
    assert found == [scan(rows, q, tol, projective) for q in queries]
    # every row is found from itself and from its near copies
    assert sum(f is not None for f in found) > 2 * len(rows)


def test_merge_matches_scan_of_near_duplicates():
    def merged(points, weights):
        pts, wts = [], []
        for p, w in zip(points, weights):
            i = scan(np.array(pts), p, ATOM_TOL, False) if pts else None
            if i is None:
                pts.append(p)
                wts.append(w)
            else:
                wts[i] += w
        return np.array(pts), np.array(wts)

    rng = np.random.default_rng(5)
    base = rng.normal(size=(30, 3))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    points = list(base) + list(-base)
    for k in range(60):
        step = (0.3 if k % 2 else 3.0) * ATOM_TOL
        points.append(base[k % 30] + step * rng.normal(size=3) / np.sqrt(3))
    weights = list(rng.uniform(0.1, 1.0, size=len(points)))
    m = AtomicMeasure.from_sphere_atoms(points, weights)
    pts, wts = merged([normalized(p) for p in points], weights)
    assert 60 < len(pts) < len(points)
    assert np.array_equal(m.points, pts)
    assert np.array_equal(m.weights, wts)


def maps_equal(a, b):
    return matrices_projectively_equal(a.matrix, b.matrix)


def test_icosahedral_group_matches_reference_closure():
    verts = icosahedron_vertices()
    faces = icosahedron_faces(verts)
    moves = [rotation_about(verts[0], 2.0 * np.pi / 5.0),
             rotation_about(verts[list(faces[0])].sum(axis=0),
                            2.0 * np.pi / 3.0)]
    reference = reference_closure(
        [ProjectiveMap.identity(2)], [lambda w, s=s: w.compose(s)
                                      for s in moves], maps_equal)
    group = icosahedral_rotation_group()
    assert len(group) == len(reference) == 60
    assert all(np.array_equal(g.matrix, r.matrix)
               for g, r in zip(group, reference))


def test_holonomy_words_match_reference_closure():
    tri = load(builtin_document("t2-grid", k=16))
    gens = list(tri.holonomy)
    moves = gens + [g.inverse() for g in gens]
    reference = reference_closure(
        [ProjectiveMap.identity(tri.dim)], [lambda w, s=s: w.compose(s)
                                            for s in moves],
        maps_equal, depth=3)
    words = _holonomy_words(gens, tri.dim, 3)
    assert len(words) == len(reference) == 25
    assert all(np.array_equal(w.matrix, r.matrix)
               for w, r in zip(words, reference))


def test_orbit_matches_reference_closure():
    g = rotation_about([0.0, 0.0, 1.0], 2.0 * np.pi / 500)
    seed = np.array([0.6, 0.0, 0.8])
    reference = reference_closure(
        [seed], [lambda p, m=m: normalized(m @ p)
                 for m in (g.matrix, g.inverse_matrix)],
        points_projectively_equal)
    orbit = finite_orbit_measure(seed, [g], 1000).orbit
    assert len(orbit) == len(reference) == 500
    # FiniteOrbitMeasure normalizes its points once more
    assert all(np.array_equal(p, normalized(q))
               for p, q in zip(orbit, reference))

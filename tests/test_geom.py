import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbmeasure import (DegenerateSimplex, DimensionMismatch, Hyperplane,
                       ProjectiveMap, Region, SingularMatrix, UnitPoint,
                       ZeroVector, apply_map, face_region, random_region,
                       random_simplex, simplex_from_vertices)


def rotation_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    return ProjectiveMap([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def icosahedron_vertices():
    phi = (1 + np.sqrt(5)) / 2
    verts = []
    for a, b in [(1, phi), (1, -phi), (-1, phi), (-1, -phi)]:
        verts.append([0, a, b])
        verts.append([a, b, 0])
        verts.append([b, 0, a])
    v = np.array(verts, dtype=float)
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def icosahedron_faces(verts):
    # faces = triples of mutually adjacent vertices (adjacency = min distance)
    d = np.linalg.norm(verts[:, None, :] - verts[None, :, :], axis=2)
    edge = d[d > 1e-9].min()
    adj = np.abs(d - edge) < 1e-6
    faces = []
    n = len(verts)
    for i in range(n):
        for j in range(i + 1, n):
            if not adj[i, j]:
                continue
            for k in range(j + 1, n):
                if adj[i, k] and adj[j, k]:
                    faces.append((i, j, k))
    return faces


class TestUnitPoint:
    def test_normalizes(self):
        p = UnitPoint([3.0, 0.0, 4.0])
        assert np.allclose(np.linalg.norm(p.coords), 1.0, atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            UnitPoint([0.0, 0.0, 1e-15])


class TestSimplexFromVertices:
    def test_octant(self):
        s = simplex_from_vertices(np.eye(3))
        for i in range(3):
            assert np.allclose(s.planes[i].normal, np.eye(3)[i], atol=1e-12)

    def test_coplanar_rejected(self):
        with pytest.raises(DegenerateSimplex):
            simplex_from_vertices([[1, 0, 0], [0, 1, 0], [0.5, 0.5, 0]])

    def test_zero_vertex_rejected(self):
        with pytest.raises(ZeroVector):
            simplex_from_vertices([[1, 0, 0], [0, 1, 0], [0, 0, 1e-14]])

    def test_icosahedral_faces_all_valid(self):
        verts = icosahedron_vertices()
        faces = icosahedron_faces(verts)
        assert len(faces) == 20
        for f in faces:
            s = simplex_from_vertices(verts[list(f)])
            assert abs(np.linalg.det(s.vertices)) > 1e-9

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(3)
        base = random_simplex(3, rng)
        scales = rng.uniform(0.2, 5.0, size=4)
        scaled = simplex_from_vertices(base.vertices * scales[:, None])
        assert np.allclose(scaled.vertices, base.vertices, atol=1e-12)
        for p, q in zip(scaled.planes, base.planes):
            assert np.allclose(p.normal, q.normal, atol=1e-12)

    def test_random_simplex_rejects_negative_dimension(self):
        # a (0, 0) vertex matrix is never a simplex, so it used to redraw
        with pytest.raises(ValueError, match="dimension"):
            random_simplex(-1, np.random.default_rng(0))

    def test_barycenter_strictly_interior(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            s = random_simplex(2, rng)
            interior = s.interior_point()
            assert all(p.side(interior) > 0 for p in s.planes)

    def test_vertices_positive_on_own_plane(self):
        rng = np.random.default_rng(7)
        s = random_simplex(3, rng)
        for i in range(4):
            assert s.planes[i].side(s.vertices[i]) > 0
            for j in range(4):
                if j != i:
                    assert abs(s.planes[i].side(s.vertices[j])) < 1e-12


class TestFaceRegion:
    def setup_method(self):
        self.octant = simplex_from_vertices(np.eye(3))

    def test_pair_cut(self):
        r = face_region(self.octant, [0, 1])
        assert len(r.halves) == 2
        assert r.contains([0.6, 0.6, -0.5]) and not r.contains([-0.6, 0.6, 0.5])

    def test_empty_cut_is_whole_sphere(self):
        r = face_region(self.octant, [])
        assert len(r.halves) == 0
        assert r.contains([-1.0, 0.0, 0.0])

    def test_full_cut_is_interior(self):
        r = face_region(self.octant, [0, 1, 2])
        assert r.contains(np.ones(3) / np.sqrt(3))
        assert not r.contains([1.0, 0.0, 0.0])

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            face_region(self.octant, [3])


class TestProjectiveMap:
    def test_identity_fixes_points(self):
        g = ProjectiveMap.identity(2)
        p = UnitPoint([0.6, 0.0, 0.8])
        assert np.allclose(apply_map(g, p).coords, p.coords, atol=1e-12)

    def test_antipodal_map(self):
        g = ProjectiveMap(-np.eye(3))
        p = apply_map(g, UnitPoint([1.0, 0.0, 0.0]))
        # -I and I agree projectively; the sphere action is defined up to sign
        assert min(np.linalg.norm(p.coords - [-1, 0, 0]),
                   np.linalg.norm(p.coords - [1, 0, 0])) < 1e-12

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            ProjectiveMap([[1, 0, 0], [0, 1, 0], [1, 1, 0]])

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        g = ProjectiveMap(rng.standard_normal((4, 4)) + 2 * np.eye(4))
        s = random_simplex(3, rng)
        back = apply_map(g.inverse(), apply_map(g, s))
        for v, w in zip(back.vertices, s.vertices):
            assert min(np.linalg.norm(v - w), np.linalg.norm(v + w)) < 1e-9

    def test_rotation_permutes_icosahedral_faces(self):
        verts = icosahedron_vertices()
        faces = icosahedron_faces(verts)
        simplices = [simplex_from_vertices(verts[list(f)]) for f in faces]
        axis = verts[0]
        rot = rotation_about(axis, 2 * np.pi / 5)
        moved = apply_map(rot, simplices[0])
        hits = 0
        for s in simplices:
            if simplices_match(moved, s):
                hits += 1
        assert hits == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_map(ProjectiveMap.identity(3), UnitPoint([1.0, 0.0, 0.0]))


def rotation_about(axis, theta):
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    mat = np.eye(3) + np.sin(theta) * k + (1 - np.cos(theta)) * (k @ k)
    return ProjectiveMap(mat)


def simplices_match(a, b, tol=1e-9):
    # exact sphere match (no antipodal freedom): rotations map faces to faces
    used = set()
    for v in a.vertices:
        found = None
        for j, w in enumerate(b.vertices):
            if j in used:
                continue
            if np.linalg.norm(v - w) < tol:
                found = j
                break
        if found is None:
            return False
        used.add(found)
    return True


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_membership_equivariance(seed, n_halves):
    # x in region(s, T) iff g.x in region(g.s, T), for well-conditioned g
    rng = np.random.default_rng(seed)
    s = random_simplex(2, rng)
    g = ProjectiveMap(rng.standard_normal((3, 3)) + 3 * np.eye(3))
    cut = tuple(rng.choice(3, size=n_halves, replace=False))
    region = face_region(s, cut)
    moved_region = face_region(apply_map(g, s), cut)
    for _ in range(10):
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        side = region.contains(x)
        gx = g.apply_to_vector(x)
        if min(abs(region.normals @ x).min(initial=1.0),
               abs(moved_region.normals @ gx).min(initial=1.0)) < 1e-9:
            continue  # skip near-boundary samples
        assert moved_region.contains(gx) == side


def test_region_dimension_check():
    with pytest.raises(DimensionMismatch):
        Region([Hyperplane([1.0, 0.0, 0.0])], ambient_dim=3)


def test_random_region_shape():
    rng = np.random.default_rng(0)
    r = random_region(4, rng, 3)
    assert r.normals.shape == (3, 5)

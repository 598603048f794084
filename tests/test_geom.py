import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbmeasure import (DegenerateSimplex, DimensionMismatch, ProjectiveMap,
                       Region, SingularMatrix, ZeroVector, apply_map,
                       face_region, random_region, random_simplex,
                       simplex_from_vertices)
from gbmeasure.geom import simplex_stack


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


class TestRegionRows:
    def test_normalizes(self):
        r = Region([[3.0, 0.0, 4.0]], 2)
        assert np.allclose(np.linalg.norm(r.normals[0]), 1.0, atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector, match="hyperplane normal has norm"):
            Region([[1.0, 0.0, 0.0], [0.0, 0.0, 1e-15]], 2)


class TestSimplexFromVertices:
    def test_octant(self):
        s = simplex_from_vertices(np.eye(3))
        for i in range(3):
            assert np.allclose(s.normals[i], np.eye(3)[i], atol=1e-12)

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
        assert np.allclose(scaled.normals, base.normals, atol=1e-12)

    def test_random_simplex_rejects_negative_dimension(self):
        # a (0, 0) vertex matrix is never a simplex, so it used to redraw
        with pytest.raises(ValueError, match="dimension"):
            random_simplex(-1, np.random.default_rng(0))

    @pytest.mark.parametrize("dim", range(8, 17))
    def test_random_simplex_accepts_within_a_few_draws(self, dim):
        # a fixed |det| > 0.05 accepted none of 4000 draws at dims 14-18
        class Counted:
            def __init__(self, seed):
                self.rng, self.draws = np.random.default_rng(seed), 0

            def standard_normal(self, shape):
                self.draws += 1
                assert self.draws <= 40, "no simplex in 40 draws"
                return self.rng.standard_normal(shape)

        for seed in range(6):
            s = random_simplex(dim, Counted(seed))
            assert s.dim == dim
            assert np.all(s.normals @ s.interior_point() > 0)

    def test_random_simplex_keeps_the_low_dimensional_rule(self):
        # up to dim 7 the vertex rows still need |det| > 0.05
        for dim in range(1, 8):
            rng = np.random.default_rng(dim)
            want = np.random.default_rng(dim)
            while True:
                rows = want.standard_normal((dim + 1, dim + 1))
                rows /= np.linalg.norm(rows, axis=1, keepdims=True)
                if abs(np.linalg.det(rows)) > 0.05:
                    break
            assert np.allclose(random_simplex(dim, rng).vertices, rows)

    def test_barycenter_strictly_interior(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            s = random_simplex(2, rng)
            interior = s.interior_point()
            assert np.all(s.normals @ interior > 0)

    def test_vertices_positive_on_own_plane(self):
        rng = np.random.default_rng(7)
        s = random_simplex(3, rng)
        for i in range(4):
            assert s.normals[i] @ s.vertices[i] > 0
            for j in range(4):
                if j != i:
                    assert abs(s.normals[i] @ s.vertices[j]) < 1e-12


def _per_row_simplex(rows):
    """Unit vertex rows and plane normals as a per-row construction makes
    them: each vertex and each dual-basis column normalized on its own."""
    rows = np.asarray(rows, dtype=float)
    mat = np.array([r / np.linalg.norm(r) for r in rows])
    dual = np.linalg.inv(mat)
    return mat, [dual[:, i] / np.linalg.norm(dual[:, i])
                 for i in range(len(mat))]


def _same_bits(simplex, rows):
    mat, normals = _per_row_simplex(rows)
    return (np.array_equal(simplex.vertices, mat)
            and all(np.array_equal(p, q)
                    for p, q in zip(simplex.normals, normals)))


@pytest.mark.parametrize("width", range(2, 9))
def test_stacked_builder_matches_per_row_bits(width):
    rng = np.random.default_rng(width)
    stack = (rng.standard_normal((200, width, width))
             * rng.uniform(0.1, 10.0, (200, width, 1)))
    built = simplex_stack(stack)
    assert all(_same_bits(s, rows) for s, rows in zip(built, stack))
    assert all(_same_bits(simplex_from_vertices(rows), rows)
               for rows in stack[:20])
    # random_simplex keeps the first draw with |det| > 0.05 of its unit rows
    kept = 0
    for seed in range(40):
        rows = np.random.default_rng(seed).standard_normal((width, width))
        if abs(np.linalg.det(_per_row_simplex(rows)[0])) > 0.05:
            kept += 1
            simplex = random_simplex(width - 1, np.random.default_rng(seed))
            assert _same_bits(simplex, rows)
    assert kept >= 10


def test_stacked_builder_reports_each_failing_matrix():
    good = np.eye(3)
    flat = [[1, 0, 0], [0, 1, 0], [0.5, 0.5, 0]]
    tiny = [[1, 0, 0], [0, 1, 0], [0, 0, 1e-14]]
    built = simplex_stack([good, flat, good, tiny])
    assert [type(s).__name__ for s in built] == [
        "SphericalSimplex", "DegenerateSimplex", "SphericalSimplex",
        "ZeroVector"]
    assert str(built[3]) == "vertex 2 has norm 1e-14 (< 1e-12)"


class TestFaceRegion:
    def setup_method(self):
        self.octant = simplex_from_vertices(np.eye(3))

    def test_pair_cut(self):
        r = face_region(self.octant, [0, 1])
        assert len(r.normals) == 2
        assert r.contains([0.6, 0.6, -0.5]) and not r.contains([-0.6, 0.6, 0.5])

    def test_empty_cut_is_whole_sphere(self):
        r = face_region(self.octant, [])
        assert len(r.normals) == 0
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
        p = np.array([0.6, 0.0, 0.8])
        assert np.allclose(g.apply_to_vector(p), p, atol=1e-12)

    def test_antipodal_map(self):
        g = ProjectiveMap(-np.eye(3))
        p = g.apply_to_vector([1.0, 0.0, 0.0])
        # -I and I agree projectively; the sphere action is defined up to sign
        assert min(np.linalg.norm(p - [-1, 0, 0]),
                   np.linalg.norm(p - [1, 0, 0])) < 1e-12

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
            apply_map(ProjectiveMap.identity(3), Region([[1.0, 0.0, 0.0]], 2))


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
        Region([[1.0, 0.0, 0.0]], ambient_dim=3)


def test_random_region_shape():
    rng = np.random.default_rng(0)
    r = random_region(4, rng, 3)
    assert r.normals.shape == (3, 5)


def test_flipping_negates_the_normal_exactly():
    rng = np.random.default_rng(5)
    for _ in range(50):
        r = random_region(3, rng, 5)
        flipped = r.antipodal()
        assert np.array_equal(flipped.normals, -r.normals)
        assert not flipped.normals.flags.writeable
        assert flipped.antipodal().normals.tobytes() == r.normals.tobytes()

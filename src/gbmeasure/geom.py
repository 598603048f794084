"""Spherical/projective linear algebra: half-space regions, simplices and
the action of invertible matrices up to scale.

Everything lives on the unit sphere S^n inside R^{n+1}, and a point is a
unit row.  A great hyperplane is the sphere's intersection with a
codimension-1 linear subspace; its unit normal fixes an orientation, with
positive side {x : <normal, x> > 0}.  Regions and simplices hold read-only
arrays of such rows and are immutable after construction.
"""

import numpy as np

from .errors import (DegenerateSimplex, DimensionMismatch, SingularMatrix,
                     ZeroVector)
from ._util import UNIT_TOL, canonical_matrix, row_norms

DET_TOL = 1e-9


def _unit(v, what="vector"):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < UNIT_TOL:
        raise ZeroVector("%s has norm %g (< %g)" % (what, n, UNIT_TOL))
    v = v / n
    v.flags.writeable = False
    return v


class Region:
    """Intersection of the open positive sides {x : <u, x> > 0} of finitely
    many great hyperplanes, one unit normal u per row of normals.

    No rows denote all of S^n.  Membership is exactly the conjunction of
    strict sign tests.  Negating a row swaps the sides of its plane.
    """

    __slots__ = ("normals", "ambient_dim")

    def __init__(self, normals, ambient_dim):
        rows = [_unit(u, "hyperplane normal") for u in normals]
        ambient_dim = int(ambient_dim)
        for u in rows:
            if len(u) != ambient_dim + 1:
                raise DimensionMismatch(
                    "hyperplane of dim %d in a region of dim %d"
                    % (len(u) - 1, ambient_dim))
        self.normals = np.array(rows, dtype=float).reshape(len(rows),
                                                           ambient_dim + 1)
        self.normals.flags.writeable = False
        self.ambient_dim = ambient_dim

    def contains(self, point):
        return bool(np.all(self.normals @ np.asarray(point) > 0.0))

    def antipodal(self):
        """The image of this region under x -> -x: every row exactly
        negated, so that taking it twice gives back the same bits."""
        return _region(-self.normals, self.ambient_dim)

    def intersect(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("regions of dims %d and %d"
                                    % (self.ambient_dim, other.ambient_dim))
        return _region(np.concatenate([self.normals, other.normals]),
                       self.ambient_dim)

    def __repr__(self):
        return "Region(%d halves, S^%d)" % (len(self.normals),
                                            self.ambient_dim)


def _region(normals, ambient_dim):
    """A Region holding the unit rows normals as they are, made read-only."""
    region = Region.__new__(Region)
    normals.flags.writeable = False
    region.normals, region.ambient_dim = normals, ambient_dim
    return region


def whole_sphere(dim):
    return Region([], dim)


class SphericalSimplex:
    """n+1 unit vertices in general position and their opposite planes.

    Plane i, of unit normal normals[i], is spanned by all vertices except
    vertex i and oriented so that vertex i (hence the whole simplex) lies
    strictly on its positive side.
    The simplex itself is the region cut out by all n+1 positive sides; it
    always sits inside an open hemisphere because independent vertices span
    a salient cone.
    """

    __slots__ = ("vertices", "normals")

    def __init__(self, vertices, normals):
        self.vertices = vertices        # (n+1, n+1) unit rows, read-only
        self.normals = normals          # (n+1, n+1) unit rows, read-only

    @property
    def dim(self):
        return self.vertices.shape[1] - 1

    def interior_point(self):
        """The normalized vertex sum; strictly inside every positive side."""
        return _unit(self.vertices.sum(axis=0), "point")

    def region(self):
        """The open simplex interior as a Region (all n+1 positive sides)."""
        return face_region(self, range(self.dim + 1))

    def __repr__(self):
        return "SphericalSimplex(S^%d)" % self.dim


def simplex_from_vertices(vertices, det_tol=DET_TOL):
    """Build a spherical simplex from n+1 spanning vectors.

    Vertices are normalized (positive input scalings give the same simplex).
    Raises ZeroVector for a near-zero input and DegenerateSimplex when the
    normalized vertex matrix has |det| <= det_tol.
    """
    rows = np.asarray(vertices, dtype=float)
    if rows.ndim != 2 or not 0 < rows.shape[0] == rows.shape[1]:
        raise DegenerateSimplex(
            "need n+1 vertices of dimension n+1, got %d of dimension %d"
            % (len(rows), rows.shape[-1]))
    simplex, = simplex_stack(rows[None], det_tol)
    if isinstance(simplex, Exception):
        raise simplex
    return simplex


def simplex_stack(vertices, det_tol=DET_TOL):
    """Simplices from a (count, n+1, n+1) stack of vertex rows in one pass:
    each entry is the SphericalSimplex that simplex_from_vertices builds
    from that matrix, or the ZeroVector or DegenerateSimplex it raises."""
    mats = np.array(vertices, dtype=float)
    norms = row_norms(mats)
    zero = norms < UNIT_TOL
    mats /= np.where(zero, 1.0, norms)[..., None]
    dets = np.linalg.det(mats)
    ok = ~zero.any(axis=1) & (np.abs(dets) > det_tol)
    # Columns of the inverse form the dual basis: column i is orthogonal to
    # every vertex but i and positive on vertex i, which is exactly the
    # orientation convention for the opposite plane.
    normals = np.linalg.inv(np.where(ok[:, None, None], mats,
                                     np.eye(mats.shape[-1])))
    normals = np.ascontiguousarray(np.swapaxes(normals, 1, 2))
    normals /= row_norms(normals)[..., None]
    # the vertex sum, a positive multiple of interior_point(), on every side
    ok &= np.all(np.vecdot(normals, mats.sum(axis=1)[:, None, :]) > 0.0,
                 axis=1)
    mats.flags.writeable = False
    normals.flags.writeable = False
    out = []
    for t, (rows, planes) in enumerate(zip(mats, normals)):
        if ok[t]:
            out.append(SphericalSimplex(rows, planes))
        elif zero[t].any():
            i = int(np.argmax(zero[t]))
            out.append(ZeroVector("vertex %d has norm %g (< %g)"
                                  % (i, norms[t, i], UNIT_TOL)))
        else:
            out.append(DegenerateSimplex(
                "interior point failed a positivity test"
                if abs(dets[t]) > det_tol else
                "vertex matrix determinant %g (tol %g)" % (dets[t], det_tol)))
    return out


def face_region(simplex, cut_set):
    """Region of the positive sides indexed by cut_set.

    cut_set = [] yields all of S^n; the full index set yields the open
    simplex interior.  Twice the angle at the face cut out by cut_set is the
    measure of this region.
    """
    cut = sorted(set(int(i) for i in cut_set))
    n1 = simplex.dim + 1
    for i in cut:
        if not 0 <= i < n1:
            raise IndexError("plane index %d out of range 0..%d" % (i, n1 - 1))
    return _region(simplex.normals[cut], simplex.dim)


class ProjectiveMap:
    """An invertible matrix up to nonzero scale, acting on S^n objects.

    Points map by matrix-apply-then-normalize, hyperplane normals by the
    inverse transpose, so containment is equivariant: x on the positive
    side of H iff g.x is on the positive side of g.H.  The stored matrix is
    scaled to a canonical representative; on the sphere the action is
    therefore only defined up to the antipodal map, which is invisible to
    the antipodally invariant measures used throughout.
    """

    __slots__ = ("matrix", "inverse_matrix")

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise SingularMatrix("matrix must be square, got shape %s"
                                 % (m.shape,))
        m = canonical_matrix(m)
        det = np.linalg.det(m)
        if abs(det) <= 1e-12:
            raise SingularMatrix("determinant %g of the normalized matrix"
                                 % det)
        inv = np.linalg.inv(m)
        m.flags.writeable = False
        inv.flags.writeable = False
        self.matrix = m
        self.inverse_matrix = inv

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim + 1))

    @property
    def dim(self):
        return self.matrix.shape[0] - 1

    def inverse(self):
        return ProjectiveMap(self.inverse_matrix)

    def compose(self, other):
        """The map acting as self after other."""
        return ProjectiveMap(self.matrix @ other.matrix)

    def apply_to_vector(self, coords):
        return _unit(self.matrix @ np.asarray(coords, dtype=float))

    def apply_to_normal(self, normal):
        return _unit(self.inverse_matrix.T @ np.asarray(normal, dtype=float))

    def __repr__(self):
        return "ProjectiveMap(dim=%d)" % self.dim


def apply_map(g, obj):
    """Apply a projective map to a region or a simplex; a point maps by
    g.apply_to_vector."""
    if isinstance(obj, Region):
        _check_dims(g, obj.ambient_dim)
        return Region([g.apply_to_normal(u) for u in obj.normals],
                      obj.ambient_dim)
    if isinstance(obj, SphericalSimplex):
        _check_dims(g, obj.dim)
        return simplex_from_vertices([g.apply_to_vector(v)
                                      for v in obj.vertices])
    raise TypeError("cannot apply a projective map to %r" % type(obj))


def _check_dims(g, dim):
    if g.dim != dim:
        raise DimensionMismatch("map of dim %d applied to object of dim %d"
                                % (g.dim, dim))


def random_simplex(dim, rng, det_tol=None):
    """A random well-conditioned simplex on S^dim (Gaussian vertices).

    Its n = dim + 1 unit vertex rows need |det| > det_tol: by default 0.05
    up to dim 7, and above a quarter of the RMS determinant sqrt(n! / n^n)
    of random unit rows, which about half of all draws pass at dims 8-18.
    """
    if dim < 0:
        raise ValueError("simplex dimension must be >= 0, got %d" % dim)
    if det_tol is None:      # n! / n^n is the product of i / n, i = 1..n
        det_tol = 0.05 if dim <= 7 else np.sqrt(
            np.prod(np.arange(1, dim + 2) / (dim + 1))) / 4
    while True:
        verts = rng.standard_normal((dim + 1, dim + 1))
        try:
            return simplex_from_vertices(verts, det_tol=det_tol)
        except (DegenerateSimplex, ZeroVector):
            continue


def random_region(dim, rng, n_halves):
    """A region bounded by n_halves random hyperplanes."""
    return Region([rng.standard_normal(dim + 1) for _ in range(n_halves)],
                  dim)

"""Spherical/projective linear algebra: points, hyperplanes, half-space
regions, simplices and the action of invertible matrices up to scale.

Everything lives on the unit sphere S^n inside R^{n+1}.  A great hyperplane
is the sphere's intersection with a codimension-1 linear subspace; its unit
normal fixes an orientation, with positive side {x : <normal, x> > 0}.
All objects are immutable after construction and safe to share between
threads.
"""

import numpy as np

from .errors import (DegenerateSimplex, DimensionMismatch, SingularMatrix,
                     ZeroVector)
from ._util import UNIT_TOL, canonical_matrix

DET_TOL = 1e-9


def _unit(v, what="vector"):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < UNIT_TOL:
        raise ZeroVector("%s has norm %g (< %g)" % (what, n, UNIT_TOL))
    v = v / n
    v.flags.writeable = False
    return v


class UnitPoint:
    """A point of S^n, stored as a unit vector in R^{n+1}."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = _unit(coords, "point")

    @property
    def dim(self):
        return len(self.coords) - 1

    def __repr__(self):
        return "UnitPoint(%s)" % np.array2string(self.coords, precision=6)


class Hyperplane:
    """An oriented great hypersphere; positive side {x : <normal, x> > 0}.

    Negating the normal swaps the sides.
    """

    __slots__ = ("normal",)

    def __init__(self, normal):
        self.normal = _unit(normal, "hyperplane normal")

    @property
    def dim(self):
        return len(self.normal) - 1

    def side(self, point):
        """Signed coordinate of a point against this plane."""
        coords = point.coords if isinstance(point, UnitPoint) else point
        return float(np.dot(self.normal, coords))

    def contains_strictly(self, point):
        return self.side(point) > 0.0

    def flipped(self):
        return Hyperplane(-self.normal)

    def __repr__(self):
        return "Hyperplane(%s)" % np.array2string(self.normal, precision=6)


class Region:
    """Intersection of the open positive sides of finitely many hyperplanes.

    An empty list of halves denotes all of S^n.  Membership is exactly the
    conjunction of strict sign tests.
    """

    __slots__ = ("halves", "ambient_dim", "_normals")

    def __init__(self, halves, ambient_dim):
        self.halves = tuple(halves)
        self.ambient_dim = int(ambient_dim)
        for h in self.halves:
            if h.dim != self.ambient_dim:
                raise DimensionMismatch(
                    "hyperplane of dim %d in a region of dim %d"
                    % (h.dim, self.ambient_dim))
        normals = np.array([h.normal for h in self.halves], dtype=float)
        normals = normals.reshape(len(self.halves), self.ambient_dim + 1)
        normals.flags.writeable = False
        self._normals = normals

    @property
    def normals(self):
        """(#halves, n+1) array of the bounding unit normals."""
        return self._normals

    def contains(self, point):
        coords = point.coords if isinstance(point, UnitPoint) else np.asarray(point)
        if len(self.halves) == 0:
            return True
        return bool(np.all(self._normals @ coords > 0.0))

    def antipodal(self):
        """The image of this region under x -> -x."""
        return Region([h.flipped() for h in self.halves], self.ambient_dim)

    def intersect(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("regions of dims %d and %d"
                                    % (self.ambient_dim, other.ambient_dim))
        return Region(self.halves + other.halves, self.ambient_dim)

    def __repr__(self):
        return "Region(%d halves, S^%d)" % (len(self.halves), self.ambient_dim)


def whole_sphere(dim):
    return Region([], dim)


class SphericalSimplex:
    """n+1 unit vertices in general position and their opposite planes.

    Plane i is spanned by all vertices except vertex i and oriented so that
    vertex i (hence the whole simplex) lies strictly on its positive side.
    The simplex itself is the region cut out by all n+1 positive sides; it
    always sits inside an open hemisphere because independent vertices span
    a salient cone.
    """

    __slots__ = ("vertices", "planes")

    def __init__(self, vertices, planes):
        self.vertices = vertices        # (n+1, n+1) rows, unit
        self.planes = tuple(planes)     # n+1 Hyperplane, plane i opposite vertex i

    @property
    def dim(self):
        return self.vertices.shape[1] - 1

    def vertex(self, i):
        return UnitPoint(self.vertices[i])

    def interior_point(self):
        """The normalized vertex sum; strictly inside every positive side."""
        return UnitPoint(self.vertices.sum(axis=0))

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
    rows = [np.asarray(v, dtype=float) for v in vertices]
    count = len(rows)
    if count == 0:
        raise DegenerateSimplex("no vertices")
    width = len(rows[0])
    if count != width:
        raise DegenerateSimplex(
            "need n+1 vertices of dimension n+1, got %d of dimension %d"
            % (count, width))
    mat = np.array([_unit(r, "vertex %d" % i) for i, r in enumerate(rows)])
    det = np.linalg.det(mat)
    if abs(det) <= det_tol:
        raise DegenerateSimplex("vertex matrix determinant %g (tol %g)"
                                % (det, det_tol))
    # Columns of the inverse form the dual basis: column i is orthogonal to
    # every vertex but i and positive on vertex i, which is exactly the
    # orientation convention for the opposite plane.
    dual = np.linalg.inv(mat)
    planes = [Hyperplane(dual[:, i]) for i in range(count)]
    mat.flags.writeable = False
    simplex = SphericalSimplex(mat, planes)
    interior = simplex.interior_point()
    if not all(p.contains_strictly(interior) for p in planes):
        raise DegenerateSimplex("interior point failed a positivity test")
    return simplex


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
    return Region([simplex.planes[i] for i in cut], simplex.dim)


class ProjectiveMap:
    """An invertible matrix up to nonzero scale, acting on S^n objects.

    Points map by matrix-apply-then-normalize, hyperplanes by the inverse
    transpose, so containment is equivariant: x on the positive side of H
    iff g.x is on the positive side of g.H.  The stored matrix is scaled to
    a canonical representative; on the sphere the action is therefore only
    defined up to the antipodal map, which is invisible to the antipodally
    invariant measures used throughout.
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
    """Apply a projective map to a point, plane, region or simplex."""
    if isinstance(obj, UnitPoint):
        _check_dims(g, obj.dim)
        return UnitPoint(g.apply_to_vector(obj.coords))
    if isinstance(obj, Hyperplane):
        _check_dims(g, obj.dim)
        return Hyperplane(g.apply_to_normal(obj.normal))
    if isinstance(obj, Region):
        _check_dims(g, obj.ambient_dim)
        return Region([apply_map(g, h) for h in obj.halves], obj.ambient_dim)
    if isinstance(obj, SphericalSimplex):
        _check_dims(g, obj.dim)
        return simplex_from_vertices([g.apply_to_vector(v)
                                      for v in obj.vertices])
    raise TypeError("cannot apply a projective map to %r" % type(obj))


def _check_dims(g, dim):
    if g.dim != dim:
        raise DimensionMismatch("map of dim %d applied to object of dim %d"
                                % (g.dim, dim))


def random_simplex(dim, rng, det_tol=0.05):
    """A random well-conditioned simplex on S^dim (Gaussian vertices)."""
    if dim < 0:
        raise ValueError("simplex dimension must be >= 0, got %d" % dim)
    while True:
        verts = rng.standard_normal((dim + 1, dim + 1))
        try:
            return simplex_from_vertices(verts, det_tol=det_tol)
        except (DegenerateSimplex, ZeroVector):
            continue


def random_region(dim, rng, n_halves):
    """A region bounded by n_halves random hyperplanes."""
    halves = [Hyperplane(rng.standard_normal(dim + 1)) for _ in range(n_halves)]
    return Region(halves, dim)

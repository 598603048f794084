"""Measures on S^n and their evaluation on half-space regions.

Every measure here is antipodally invariant with total mass 2, so it is the
spherical lift of a probability measure on projective space.  Evaluation
returns a MeasureEstimate: exact values carry std_error 0 and samples 0,
Monte Carlo values carry the estimated standard error of the mean and the
sample count.

Monte Carlo evaluation draws normalized standard Gaussian vectors in fixed
blocks with per-block derived seeds, so a result is a pure function of
(seed, samples) no matter how blocks are scheduled across threads.
"""

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import (BoundaryAtom, DimensionMismatch, NonAtomicBase,
                     NotAGroup, OrbitOverflow, SchemaError,
                     UnsupportedMeasure)
from .geom import Hyperplane, ProjectiveMap, Region, apply_map
from ._util import (UNIT_TOL, MATCH_TOL, derive_seed, normalized,
                    ordered_map, points_projectively_equal)

ATOM_TOL = 1e-12
Z_LIMIT = 4.0     # standard errors a Monte Carlo zero may deviate by
_BLOCK = 1 << 17

# spawn-key roles keeping derived seed streams disjoint
_ROLE_BLOCK = 0
_ROLE_COMPONENT = 1
_ROLE_RESTRICT = 2
_ROLE_REGION = 3
_ROLE_UNION = 4
_ROLE_INVARIANCE = 5


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo evaluation parameters."""
    seed: int = 0
    samples: int = 1_000_000


def derive_mc(mc, *key):
    """A sub-configuration with a seed derived from (seed, key)."""
    mc = mc or MCConfig()
    return MCConfig(seed=derive_seed(mc.seed, *key), samples=mc.samples)


@dataclass(frozen=True, slots=True)
class MeasureEstimate:
    """A measure value with its statistical error.

    Exact evaluations have std_error 0 and samples 0.  Monte Carlo
    evaluations report the sample standard deviation of the indicator mean
    times total mass, divided by sqrt(samples).

    Estimates form a small algebra: `a + b` and `a - b` combine values with
    plain float arithmetic, errors in quadrature (the operands are treated
    as independent) and add sample counts; `c * a` and `a / m` scale by a
    number.  Exact operands give exact results.
    """
    value: float
    std_error: float = 0.0
    samples: int = 0

    @property
    def exact(self):
        return self.samples == 0 and self.std_error == 0.0

    def scaled(self, c):
        return MeasureEstimate(c * self.value, abs(c) * self.std_error,
                               self.samples)

    __mul__ = __rmul__ = scaled

    def __truediv__(self, m):
        return MeasureEstimate(self.value / m, self.std_error / abs(m),
                               self.samples)

    def __add__(self, other):
        return MeasureEstimate(self.value + other.value,
                               math.hypot(self.std_error, other.std_error),
                               self.samples + other.samples)

    def __sub__(self, other):
        return MeasureEstimate(self.value - other.value,
                               math.hypot(self.std_error, other.std_error),
                               self.samples + other.samples)

    def is_zero(self, tol):
        """|value| <= tol when exact, else within Z_LIMIT standard errors."""
        bound = tol if self.exact else Z_LIMIT * self.std_error
        return abs(self.value) <= bound


def combine_estimates(terms):
    """Linear combination sum(c * est); errors combined in quadrature.

    Per-term estimates are treated as independent, which holds when the
    caller derives distinct seeds per region.
    """
    value = math.fsum(c * e.value for c, e in terms)
    err = math.sqrt(math.fsum((c * e.std_error) ** 2 for c, e in terms))
    samples = sum(e.samples for _, e in terms)
    return MeasureEstimate(value, err, samples)


# ---------------------------------------------------------------------------
# exact uniform evaluation in low dimension

def _exact_round_value(dim, normals):
    """Exact uniform mass (total 2) of a region, or None if not closed-form.

    dim 0: two weighted points; dim 1: arc length over pi; dim 2: lune angle
    or Girard's angle excess for at most three independent planes.
    """
    h = len(normals)
    if h == 0:
        return 2.0
    if dim == 0:
        total = 0.0
        for s in (1.0, -1.0):
            if np.all(normals[:, 0] * s > 0.0):
                total += 1.0
        return total
    if dim == 1:
        return _arc_mass(normals)
    if dim == 2:
        if h == 1:
            return 1.0
        if h == 2:
            d = float(np.clip(np.dot(normals[0], normals[1]), -1.0, 1.0))
            return (math.pi - math.acos(d)) / math.pi
        if h == 3:
            if abs(np.linalg.det(normals)) <= 1e-12:
                return None
            # Girard: interior angle between the faces with inward unit
            # normals u, v is pi - acos(<u, v>); excess = sum - pi.
            area = 2.0 * math.pi
            for i, j in ((0, 1), (0, 2), (1, 2)):
                d = float(np.clip(np.dot(normals[i], normals[j]), -1.0, 1.0))
                area -= math.acos(d)
            return area / (2.0 * math.pi)
        return None
    return None


def _arc_mass(normals):
    """Mass of an intersection of half-circles: arc length over pi.

    Each half-circle {<u, x> > 0} is the open arc of length pi centred on
    the angle of u; intersecting arcs of length <= pi with half-circles
    keeps a single arc, so a running (start, length) pair suffices.
    """
    start, length = 0.0, 2.0 * math.pi
    two_pi = 2.0 * math.pi
    for u in normals:
        phi = math.atan2(u[1], u[0])
        semi_start = phi - 0.5 * math.pi
        if length >= two_pi:
            start, length = semi_start, math.pi
            continue
        d = (semi_start - start) % two_pi
        lo, hi = max(0.0, d), min(length, d + math.pi)
        if hi - lo > 0.0:
            start, length = start + lo, hi - lo
            continue
        hi2 = min(length, d - math.pi)
        if hi2 > 0.0:
            start, length = start, hi2
            continue
        return 0.0
    return length / math.pi


# ---------------------------------------------------------------------------
# Monte Carlo engine

def _gaussian_sphere_sampler(width):
    def sample(rng, count):
        x = rng.standard_normal((count, width))
        return x / np.linalg.norm(x, axis=1, keepdims=True)
    return sample


def _mc_mass(indicator, sampler, mc):
    """Unbiased estimate of 2 * P(indicator) from blocked sampling.

    Block b draws from a seed derived from (mc.seed, b); block hit counts
    are integers, so the result does not depend on scheduling.
    """
    mc = mc or MCConfig()
    n = int(mc.samples)
    if n <= 0:
        raise ValueError("samples must be positive")
    blocks = [(b, min(_BLOCK, n - b * _BLOCK))
              for b in range((n + _BLOCK - 1) // _BLOCK)]

    def run(block):
        b, count = block
        ss = np.random.SeedSequence(entropy=int(mc.seed) & (2**64 - 1),
                                    spawn_key=(_ROLE_BLOCK, b))
        rng = np.random.default_rng(ss)
        return int(np.count_nonzero(indicator(sampler(rng, count))))

    hits = sum(ordered_map(run, blocks))
    p = hits / n
    if n > 1:
        sd = math.sqrt(p * (1.0 - p) * n / (n - 1))
    else:
        sd = 0.0
    return MeasureEstimate(2.0 * p, 2.0 * sd / math.sqrt(n), n)


def _region_indicator(normals):
    if len(normals) == 0:
        return lambda pts: np.ones(len(pts), dtype=bool)
    nt = normals.T

    def indicator(pts):
        return np.all(pts @ nt > 0.0, axis=1)

    return indicator


# ---------------------------------------------------------------------------
# measure interface

class MeasureSpec(ABC):
    """A measure on S^n: antipodally invariant, total mass 2."""

    @property
    @abstractmethod
    def dim(self):
        """Dimension n of the sphere the measure lives on."""

    @abstractmethod
    def _eval(self, region, mc):
        ...

    def eval(self, region, mc=None):
        """Measure of a Region, exact where supported, else Monte Carlo."""
        if region.ambient_dim != self.dim:
            raise DimensionMismatch(
                "region on S^%d evaluated against a measure on S^%d"
                % (region.ambient_dim, self.dim))
        return self._eval(region, mc)

    @abstractmethod
    def support_subspaces(self):
        """Linear subspaces carrying concentrated mass.

        Returned as orthonormal row-basis arrays; the uniform measure
        returns [].  Used by transversality checking.
        """

    def sample(self, rng, count):
        """Draw count points distributed as this measure (if meaningful)."""
        raise UnsupportedMeasure("%s cannot be sampled from"
                                 % type(self).__name__)

    def union_mass(self, regions, mc=None):
        """Mass of the union of the regions and their antipodal images."""
        regs = list(regions)
        for r in regs:
            if r.ambient_dim != self.dim:
                raise DimensionMismatch("region dimension mismatch in union")
        return self._union_mass(regs, mc)

    def _union_mass(self, regions, mc):
        normal_sets = [r.normals for r in regions]

        def indicator(pts):
            out = np.zeros(len(pts), dtype=bool)
            for normals in normal_sets:
                if len(normals) == 0:
                    out[:] = True
                    break
                dots = pts @ normals.T
                out |= np.all(dots > 0.0, axis=1)
                out |= np.all(dots < 0.0, axis=1)
            return out

        return _mc_mass(indicator, self._sampler(), derive_mc(mc, _ROLE_UNION))

    def _sampler(self):
        raise UnsupportedMeasure("%s has no sampler; union_mass unsupported"
                                 % type(self).__name__)


class RoundMeasure(MeasureSpec):
    """The uniform measure, normalized to total mass 2.

    Exact closed forms are used on S^1 (arc length) and S^2 (angle excess,
    up to three independent bounding planes); everything else, or any
    evaluation when monte_carlo=True, is estimated by sampling.
    """

    def __init__(self, dim, monte_carlo=False):
        self._dim = int(dim)
        self.monte_carlo = bool(monte_carlo)
        if self._dim < 0:
            raise ValueError("dimension must be >= 0")

    @property
    def dim(self):
        return self._dim

    def _eval(self, region, mc):
        normals = region.normals
        if len(normals) == 0:
            return MeasureEstimate(2.0)
        if not self.monte_carlo:
            value = _exact_round_value(self._dim, normals)
            if value is not None:
                return MeasureEstimate(float(value))
        return _mc_mass(_region_indicator(normals), self._sampler(), mc)

    def support_subspaces(self):
        return []

    def _sampler(self):
        return _gaussian_sphere_sampler(self._dim + 1)

    def sample(self, rng, count):
        return self._sampler()(rng, count)

    def __repr__(self):
        return "RoundMeasure(dim=%d%s)" % (
            self._dim, ", monte_carlo=True" if self.monte_carlo else "")


class AtomicMeasure(MeasureSpec):
    """Finitely many weighted atoms, stored antipodally symmetrized.

    Each input atom (a projective point with a positive weight) is stored
    as the antipodal pair with half the weight on each lift.  Evaluation is
    exact: the sum of weights of atoms passing every strict sign test.  An
    atom lying on a region hyperplane (|<u, atom>| <= 1e-12) raises
    BoundaryAtom, surfacing exactly the configuration that must be removed
    by a small perturbation.
    """

    def __init__(self, atoms, dim=None):
        points, weights = [], []
        for coords, weight in atoms:
            if weight <= 0:
                raise ValueError("atom weights must be positive")
            p = normalized(coords)
            points.append(p)
            weights.append(0.5 * weight)
            points.append(-p)
            weights.append(0.5 * weight)
        if not points and dim is None:
            raise ValueError("empty atom list needs an explicit dim")
        self._dim = int(dim) if dim is not None else len(points[0]) - 1
        self._points, self._weights = self._merge(points, weights)

    @classmethod
    def from_sphere_atoms(cls, points, weights, dim=None):
        """Build from explicit sphere atoms (already symmetric)."""
        self = cls.__new__(cls)
        pts = [normalized(p) for p in points]
        if not pts and dim is None:
            raise ValueError("empty atom list needs an explicit dim")
        self._dim = int(dim) if dim is not None else len(pts[0]) - 1
        self._points, self._weights = cls._merge(pts, [float(w) for w in weights])
        return self

    @classmethod
    def dirac(cls, coords, total=2.0):
        """The antipodalized point mass; total=2 is the probability lift."""
        return cls([(coords, total)])

    @staticmethod
    def _merge(points, weights):
        width = len(points[0]) if points else 0
        pts = np.empty((len(points), width))
        wts = np.empty(len(points))
        count = 0
        for p, w in zip(points, weights):
            if count:
                d = np.linalg.norm(pts[:count] - p, axis=1)
                i = int(np.argmin(d))
                if d[i] <= ATOM_TOL:
                    wts[i] += w
                    continue
            pts[count] = p
            wts[count] = w
            count += 1
        pts = pts[:count].copy()
        wts = wts[:count].copy()
        pts.flags.writeable = False
        wts.flags.writeable = False
        return pts, wts

    @property
    def dim(self):
        return self._dim

    @property
    def points(self):
        """(m, n+1) array of sphere atoms (antipodally closed)."""
        return self._points

    @property
    def weights(self):
        return self._weights

    @property
    def total_mass(self):
        return math.fsum(self._weights)

    def _dots(self, region):
        return self._points @ region.normals.T

    def _eval(self, region, mc):
        if len(region.halves) == 0:
            return MeasureEstimate(self.total_mass)
        dots = self._dots(region)
        band = np.abs(dots) <= ATOM_TOL
        if band.any():
            i, j = np.argwhere(band)[0]
            raise BoundaryAtom(
                "atom %s lies on region hyperplane %s" %
                (np.array2string(self._points[i], precision=6),
                 np.array2string(region.normals[j], precision=6)),
                atom=self._points[i], normal=region.normals[j])
        inside = np.all(dots > 0.0, axis=1)
        # fsum is exactly rounded, so the value does not depend on atom order
        return MeasureEstimate(math.fsum(self._weights[inside]))

    def _union_mass(self, regions, mc):
        covered = np.zeros(len(self._points), dtype=bool)
        banded = np.zeros(len(self._points), dtype=bool)
        ctx = [None] * len(self._points)
        for r in regions:
            if len(r.halves) == 0:
                covered[:] = True
                continue
            dots = self._dots(r)
            band_rows = np.any(np.abs(dots) <= ATOM_TOL, axis=1)
            in_r = np.all(dots > ATOM_TOL, axis=1)
            in_neg = np.all(dots < -ATOM_TOL, axis=1)
            covered |= in_r | in_neg
            fresh = band_rows & ~banded
            for i in np.nonzero(fresh)[0]:
                j = int(np.argmin(np.abs(np.abs(dots[i]) - 0.0)))
                ctx[i] = r.normals[j]
            banded |= band_rows
        undecided = banded & ~covered
        if undecided.any():
            i = int(np.nonzero(undecided)[0][0])
            raise BoundaryAtom(
                "atom %s lies on a chart boundary hyperplane and inside no "
                "chart; perturb the configuration" %
                np.array2string(self._points[i], precision=6),
                atom=self._points[i], normal=ctx[i])
        return MeasureEstimate(math.fsum(self._weights[covered]))

    def support_subspaces(self):
        reps = []
        for p in self._points:
            if not any(points_projectively_equal(p, q[0]) for q in reps):
                reps.append(p.reshape(1, -1))
        return reps

    def __repr__(self):
        return "AtomicMeasure(%d sphere atoms, mass %.6g)" % (
            len(self._points), self.total_mass)


class SubsphereUniform(MeasureSpec):
    """Uniform measure on the great subsphere of a linear subspace V.

    The subspace is given by an orthonormal row basis (k rows in R^{n+1});
    the supported subsphere has dimension k-1 and carries total mass 2.
    Each region hyperplane restricts to a hyperplane of the subsphere via
    the projected normal; a normal orthogonal to V (within 1e-12) means the
    whole support lies ON that hyperplane, which raises BoundaryAtom just
    like an atom on a boundary would.
    """

    def __init__(self, basis, dim=None):
        b = np.asarray(basis, dtype=float)
        if b.ndim != 2 or b.shape[0] < 1:
            raise ValueError("basis must be a (k, n+1) array with k >= 1")
        gram = b @ b.T
        if np.linalg.norm(gram - np.eye(b.shape[0])) > MATCH_TOL:
            raise ValueError("basis rows are not orthonormal within 1e-9")
        self._dim = int(dim) if dim is not None else b.shape[1] - 1
        if b.shape[1] != self._dim + 1:
            raise DimensionMismatch("basis width %d vs ambient dim %d"
                                    % (b.shape[1], self._dim))
        if b.shape[0] > self._dim + 1:
            raise ValueError("more basis rows than the ambient dimension")
        b = b.copy()
        b.flags.writeable = False
        self._basis = b

    @classmethod
    def from_spanning(cls, rows, dim=None):
        """Orthonormalize arbitrary spanning rows (QR) and build."""
        a = np.asarray(rows, dtype=float)
        q, r = np.linalg.qr(a.T)
        keep = np.abs(np.diag(r)) > UNIT_TOL
        return cls(q.T[keep], dim=dim)

    @property
    def dim(self):
        return self._dim

    @property
    def basis(self):
        return self._basis

    @property
    def subsphere_dim(self):
        return self._basis.shape[0] - 1

    def _reduced_normals(self, region):
        reduced = []
        for u in region.normals:
            v = self._basis @ u
            norm = np.linalg.norm(v)
            if norm <= ATOM_TOL:
                raise BoundaryAtom(
                    "support subsphere is contained in region hyperplane %s"
                    % np.array2string(u, precision=6), normal=u)
            reduced.append(v / norm)
        return np.array(reduced, dtype=float).reshape(len(reduced),
                                                      self._basis.shape[0])

    def _eval(self, region, mc):
        reduced = self._reduced_normals(region)
        k = self.subsphere_dim
        if len(reduced) == 0:
            return MeasureEstimate(2.0)
        value = _exact_round_value(k, reduced)
        if value is not None:
            return MeasureEstimate(float(value))
        return _mc_mass(_region_indicator(reduced),
                        _gaussian_sphere_sampler(k + 1), mc)

    def support_subspaces(self):
        return [self._basis]

    def _sampler(self):
        base = _gaussian_sphere_sampler(self._basis.shape[0])
        basis = self._basis

        def sample(rng, count):
            return base(rng, count) @ basis

        return sample

    def sample(self, rng, count):
        return self._sampler()(rng, count)

    def __repr__(self):
        return "SubsphereUniform(S^%d in S^%d)" % (self.subsphere_dim,
                                                   self._dim)


class Mixture(MeasureSpec):
    """Convex combination sum(c_i * lambda_i) with c_i >= 0, sum = 1."""

    def __init__(self, components):
        comps = [(float(c), m) for c, m in components]
        if not comps:
            raise ValueError("mixture needs at least one component")
        if any(c < 0 for c, _ in comps):
            raise ValueError("mixture weights must be nonnegative")
        if abs(math.fsum(c for c, _ in comps) - 1.0) > MATCH_TOL:
            raise ValueError("mixture weights must sum to 1")
        dims = {m.dim for _, m in comps}
        if len(dims) != 1:
            raise DimensionMismatch("mixture components on different spheres")
        self._components = tuple(comps)

    @property
    def dim(self):
        return self._components[0][1].dim

    @property
    def components(self):
        return self._components

    def _eval(self, region, mc):
        terms = [(c, m.eval(region, derive_mc(mc, _ROLE_COMPONENT, i)))
                 for i, (c, m) in enumerate(self._components)]
        return combine_estimates(terms)

    def _union_mass(self, regions, mc):
        terms = [(c, m.union_mass(regions, derive_mc(mc, _ROLE_COMPONENT, i)))
                 for i, (c, m) in enumerate(self._components)]
        return combine_estimates(terms)

    def support_subspaces(self):
        out = []
        for c, m in self._components:
            if c > 0:
                out.extend(m.support_subspaces())
        return out

    def __repr__(self):
        return "Mixture(%d components)" % len(self._components)


def _subspace_mass(measure, basis, region):
    """Mass the measure puts on {[V] intersect region}, exact.

    Supported where positive subspace mass is representable: atomic atoms
    lying in V, and subsphere supports contained in V; the uniform measure
    contributes 0 to any proper subspace.
    """
    k, width = basis.shape
    if isinstance(measure, AtomicMeasure):
        pts = measure.points
        inside_v = np.linalg.norm(pts - (pts @ basis.T) @ basis, axis=1) <= ATOM_TOL
        if not inside_v.any():
            return 0.0
        pts = pts[inside_v]
        wts = measure.weights[inside_v]
        if region is not None and len(region.halves) > 0:
            dots = pts @ region.normals.T
            band = np.abs(dots) <= ATOM_TOL
            if band.any():
                i, j = np.argwhere(band)[0]
                raise BoundaryAtom(
                    "restricted atom lies on a region hyperplane",
                    atom=pts[i], normal=region.normals[j])
            keep = np.all(dots > 0.0, axis=1)
            wts = wts[keep]
        return math.fsum(wts)
    if isinstance(measure, SubsphereUniform):
        w = measure.basis
        contained = np.linalg.norm(w - (w @ basis.T) @ basis) <= MATCH_TOL
        if contained:
            if region is None:
                return 2.0
            est = measure.eval(region)
            if not est.exact:
                raise UnsupportedMeasure(
                    "subspace restriction over a Monte Carlo subsphere")
            return est.value
        return 0.0
    if isinstance(measure, RoundMeasure):
        if k == width:
            if region is None:
                return 2.0
            est = measure.eval(Region(region.halves, measure.dim))
            if not est.exact:
                raise UnsupportedMeasure(
                    "subspace restriction of a Monte Carlo round measure")
            return est.value
        return 0.0
    if isinstance(measure, Mixture):
        return math.fsum(c * _subspace_mass(m, basis, region)
                         for c, m in measure.components)
    raise UnsupportedMeasure(
        "subspace restriction over %s is not representable"
        % type(measure).__name__)


class RestrictedNormalized(MeasureSpec):
    """The base measure restricted to a set A, rescaled to total mass 2.

    A is a Region or a subsphere [V]; both are read through the antipodal
    quotient, so a Region restricts to (A union -A).  The base must give
    the restriction set positive mass.
    """

    def __init__(self, base, region=None, subspace=None):
        if (region is None) == (subspace is None):
            raise ValueError("give exactly one of region= or subspace=")
        self._base = base
        self._region = region
        if region is not None and region.ambient_dim != base.dim:
            raise DimensionMismatch("restriction region dimension mismatch")
        if subspace is not None:
            b = np.asarray(subspace, dtype=float)
            gram = b @ b.T
            if np.linalg.norm(gram - np.eye(b.shape[0])) > MATCH_TOL:
                raise ValueError("subspace basis not orthonormal within 1e-9")
            if b.shape[1] != base.dim + 1:
                raise DimensionMismatch("subspace basis width mismatch")
            self._subspace = b
        else:
            self._subspace = None

    @property
    def dim(self):
        return self._base.dim

    @property
    def base(self):
        return self._base

    def _eval(self, region, mc):
        if self._subspace is not None:
            den = _subspace_mass(self._base, self._subspace, None)
            if den <= 0.0:
                raise UnsupportedMeasure("restriction subsphere has no mass")
            num = _subspace_mass(self._base, self._subspace, region)
            return MeasureEstimate(2.0 * num / den)
        a, neg_a = self._region, self._region.antipodal()
        num = combine_estimates([
            (1.0, self._base.eval(region.intersect(a),
                                  derive_mc(mc, _ROLE_RESTRICT, 0))),
            (1.0, self._base.eval(region.intersect(neg_a),
                                  derive_mc(mc, _ROLE_RESTRICT, 1)))])
        den = combine_estimates([
            (1.0, self._base.eval(a, derive_mc(mc, _ROLE_RESTRICT, 2))),
            (1.0, self._base.eval(neg_a, derive_mc(mc, _ROLE_RESTRICT, 3)))])
        if den.value <= 0.0:
            raise UnsupportedMeasure("restriction region has no mass")
        value = 2.0 * num.value / den.value
        rel = 0.0
        if num.value != 0.0:
            rel += (num.std_error / num.value) ** 2
        if den.value != 0.0:
            rel += (den.std_error / den.value) ** 2
        err = abs(value) * math.sqrt(rel) if not (num.exact and den.exact) else 0.0
        return MeasureEstimate(value, err, num.samples + den.samples)

    def support_subspaces(self):
        subs = self._base.support_subspaces()
        if self._subspace is not None:
            b = self._subspace
            kept = []
            for v in subs:
                if np.linalg.norm(v - (v @ b.T) @ b) <= MATCH_TOL:
                    kept.append(v)
            return kept
        return subs

    def _union_mass(self, regions, mc):
        if isinstance(self._base, AtomicMeasure):
            if self._subspace is not None:
                den = _subspace_mass(self._base, self._subspace, None)
                pts = self._base.points
                basis = self._subspace
                inside = (np.linalg.norm(pts - (pts @ basis.T) @ basis, axis=1)
                          <= ATOM_TOL)
                sub = AtomicMeasure.from_sphere_atoms(
                    pts[inside], self._base.weights[inside], dim=self.dim)
                est = sub.union_mass(regions)
                return MeasureEstimate(2.0 * est.value / den)
            a, neg_a = self._region, self._region.antipodal()
            den = (self._base.eval(a).value + self._base.eval(neg_a).value)
            cut = [r.intersect(a) for r in regions]
            cut += [r.intersect(neg_a) for r in regions]
            est = self._base.union_mass(cut)
            return MeasureEstimate(2.0 * est.value / den)
        raise UnsupportedMeasure(
            "union_mass of a restricted non-atomic measure")

    def __repr__(self):
        what = "region" if self._region is not None else "subsphere"
        return "RestrictedNormalized(%r, %s)" % (self._base, what)


class FiniteOrbitMeasure(AtomicMeasure):
    """Equal weights on a finite projectively-invariant point set.

    With m projective points the lift carries 2m sphere atoms of weight
    1/m each, so the total mass is 2.
    """

    def __init__(self, orbit_points):
        pts = [normalized(p) for p in orbit_points]
        if not pts:
            raise ValueError("empty orbit")
        self.orbit = tuple(pts)
        super().__init__([(p, 2.0 / len(pts)) for p in pts])

    def __repr__(self):
        return "FiniteOrbitMeasure(%d projective points)" % len(self.orbit)


# ---------------------------------------------------------------------------
# constructions

def _scaled_rows(mats):
    """Matrices flattened to unit-Frobenius rows (projective up to sign)."""
    flat = mats.reshape(len(mats), -1)
    return flat / np.linalg.norm(flat, axis=1, keepdims=True)


def _projective_row_distances(rows, targets):
    """Min distance of each row to the target set, allowing either sign."""
    plus = np.linalg.norm(rows[:, None, :] - targets[None, :, :], axis=2)
    minus = np.linalg.norm(rows[:, None, :] + targets[None, :, :], axis=2)
    return np.minimum(plus, minus).min(axis=1)


def average_over_group(base, group, tol=MATCH_TOL):
    """Average an atomic measure over an explicit finite matrix group.

    Realizes the invariant mean of a finite group acting on measures: the
    result has atoms h^{-1}(a) over all listed h and base atoms a, with
    weights divided by the group order, and is invariant under every listed
    element.  Raises NotAGroup when the list is not closed under
    composition and inverse within tol, NonAtomicBase otherwise.
    """
    if not isinstance(base, AtomicMeasure):
        raise NonAtomicBase("group averaging needs an atomic base, got %s"
                            % type(base).__name__)
    elems = list(group)
    if not elems:
        raise NotAGroup("empty group list")
    for g in elems:
        if g.dim != base.dim:
            raise DimensionMismatch("group element dimension mismatch")
    mats = np.array([g.matrix for g in elems])
    listed = _scaled_rows(mats)
    inv_dist = _projective_row_distances(
        _scaled_rows(np.array([g.inverse_matrix for g in elems])), listed)
    if (inv_dist > tol).any():
        raise NotAGroup("inverse of element %d is not in the list"
                        % int(np.argmax(inv_dist > tol)))
    products = np.einsum("iab,jbc->ijac", mats, mats)
    prod_dist = _projective_row_distances(
        _scaled_rows(products.reshape(-1, *mats.shape[1:])), listed)
    if (prod_dist > tol).any():
        bad = int(np.argmax(prod_dist > tol))
        raise NotAGroup("product of elements %d and %d is not in the list"
                        % (bad // len(elems), bad % len(elems)))
    points, weights = [], []
    scale = 1.0 / len(elems)
    for g in elems:
        inv = g.inverse_matrix
        for p, w in zip(base.points, base.weights):
            points.append(normalized(inv @ p))
            weights.append(w * scale)
    return AtomicMeasure.from_sphere_atoms(points, weights, dim=base.dim)


def finite_orbit_measure(seed_point, generators, max_orbit):
    """Equal-weight measure on the orbit closure of a point.

    Breadth-first closure under the generators and their inverses, with
    projective identification at tolerance 1e-9.  Raises OrbitOverflow when
    the closure exceeds max_orbit points, signalling that the group likely
    has no finite orbit through the seed.
    """
    if max_orbit < 1:
        raise ValueError("max_orbit must be >= 1")
    seed = normalized(seed_point if not hasattr(seed_point, "coords")
                      else seed_point.coords)
    mats = []
    for g in generators:
        mats.append(g.matrix)
        mats.append(g.inverse_matrix)
    points = [seed]
    frontier = [seed]
    while frontier:
        fresh = []
        for p in frontier:
            for m in mats:
                q = normalized(m @ p)
                if not any(points_projectively_equal(q, r) for r in points):
                    points.append(q)
                    fresh.append(q)
                    if len(points) > max_orbit:
                        raise OrbitOverflow(
                            "orbit exceeded max_orbit=%d points" % max_orbit,
                            size=len(points))
        frontier = fresh
    return FiniteOrbitMeasure(points)


@dataclass(frozen=True)
class InvarianceEntry:
    region_index: int
    generator_index: int
    value: float
    mapped_value: float
    combined_std_error: float
    discrepancy: float
    passed: bool


@dataclass(frozen=True)
class InvarianceReport:
    entries: tuple
    max_discrepancy: float
    passed: bool

    def worst(self):
        return max(self.entries, key=lambda e: e.discrepancy)

    def per_region(self):
        """Region index -> (max discrepancy, passed) over all generators."""
        out = {}
        for e in self.entries:
            disc, ok = out.get(e.region_index, (0.0, True))
            out[e.region_index] = (max(disc, e.discrepancy),
                                   ok and e.passed)
        return out


def check_invariance(measure, generators, trial_regions, mc=None,
                     exact_tol=1e-9):
    """Compare eval(R) against eval(gR) for every region and generator.

    The difference must pass MeasureEstimate.is_zero: within exact_tol for
    exact measures, 4 combined standard errors for Monte Carlo ones.
    BoundaryAtom errors propagate with the offending region index attached.
    """
    entries = []
    gens = list(generators)
    for ridx, region in enumerate(trial_regions):
        try:
            base = measure.eval(region, derive_mc(mc, _ROLE_INVARIANCE, ridx, 0))
        except BoundaryAtom as err:
            err.face = ("region", ridx)
            raise
        for gidx, g in enumerate(gens):
            moved = apply_map(g, region)
            try:
                other = measure.eval(moved,
                                     derive_mc(mc, _ROLE_INVARIANCE, ridx,
                                               gidx + 1))
            except BoundaryAtom as err:
                err.face = ("region", ridx)
                raise
            diff = base - other
            entries.append(InvarianceEntry(ridx, gidx, base.value,
                                           other.value, diff.std_error,
                                           abs(diff.value),
                                           diff.is_zero(exact_tol)))
    max_disc = max((e.discrepancy for e in entries), default=0.0)
    return InvarianceReport(tuple(entries), max_disc,
                            all(e.passed for e in entries))


# ---------------------------------------------------------------------------
# JSON sub-format

def _spec_objects(spec, key):
    """spec[key], which must be a list of JSON objects."""
    items = spec[key]
    if isinstance(items, list) and all(isinstance(i, dict) for i in items):
        return items
    raise SchemaError("%s measure: %r must be a list of objects, got %r"
                      % (spec["type"], key, items))


def measure_from_spec(spec, dim):
    """Build a measure from its JSON description.

    See README for the field-by-field format of each "type".
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("measure spec must be an object with a 'type' field")
    if "dim" in spec and int(spec["dim"]) != dim:
        raise DimensionMismatch("measure dim %s vs document dim %d"
                                % (spec["dim"], dim))
    kind = spec["type"]
    if kind == "round":
        return RoundMeasure(dim, monte_carlo=bool(spec.get("monte_carlo",
                                                           False)))
    if kind == "atomic":
        atoms = [(a["point"], float(a["weight"]))
                 for a in _spec_objects(spec, "atoms")]
        return AtomicMeasure(atoms, dim=dim)
    if kind == "subsphere":
        return SubsphereUniform(np.asarray(spec["basis"], dtype=float),
                                dim=dim)
    if kind == "mixture":
        comps = [(float(c["weight"]), measure_from_spec(c["measure"], dim))
                 for c in _spec_objects(spec, "components")]
        return Mixture(comps)
    if kind == "restricted":
        base = measure_from_spec(spec["base"], dim)
        if "region" in spec:
            region = Region([Hyperplane(u) for u in spec["region"]], dim)
            return RestrictedNormalized(base, region=region)
        return RestrictedNormalized(
            base, subspace=np.asarray(spec["subspace"], dtype=float))
    if kind == "orbit":
        gens = [ProjectiveMap(np.asarray(m, dtype=float))
                for m in spec["generators"]]
        return finite_orbit_measure(np.asarray(spec["seed_point"],
                                               dtype=float),
                                    gens, int(spec.get("max_orbit", 10000)))
    raise ValueError("unknown measure type %r" % kind)

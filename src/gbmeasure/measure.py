"""Measures on S^n and their evaluation on half-space regions.

Every measure here is antipodally invariant with total mass 2, so it is the
spherical lift of a probability measure on projective space.  Evaluation
returns a MeasureEstimate: exact values carry std_error 0 and samples 0,
Monte Carlo values carry the estimated standard error of the mean, the
sample count and the sample histogram they were read from.

Monte Carlo evaluation draws standard Gaussian vectors (unnormalized: only
signs are tested) in fixed blocks with per-block derived seeds, and bins
each sample's sign code against the region's planes into a SignHistogram,
so a result is a pure function of (seed, samples) no matter how blocks are
scheduled across threads.  The mass of every sub-region cut out by a subset
of those planes is a superset sum over the same histogram, and estimates
read from one histogram carry their shared samples into the error bar.
eval_many draws once for all its sampled regions and tests them in chunks
of _CHUNK samples, with one matrix product for the stacked planes of many
regions against one or more chunks.  Each region reads each chunk turned by a Haar rotation
drawn afresh for it, which makes the readings of distinct regions exactly
uncorrelated, so their histograms stay separate sources whose errors add
in quadrature, and keeps the tails of sums over regions Gaussian.
"""

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

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
_CODE_BITS = 16   # planes coded bit by bit (2^16 histogram bins at most)
_CHUNK = 2048     # rows per chunk: a region turns each by its own rotation
_GROUP_PLANES = 64   # a product has at most 64 x _CHUNK entries (1 MB)

# spawn-key roles keeping derived seed streams disjoint
_ROLE_BLOCK = 0
_ROLE_COMPONENT = 1
_ROLE_RESTRICT = 2
_ROLE_REGION = 3      # region i of an eval_many call: seed or rotation
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

    Exact evaluations have std_error 0, samples 0 and no parts.  A Monte
    Carlo estimate is offset plus the mean of a per-sample function: parts
    pairs every sample source it reads (a SignHistogram, shared by all
    estimates read from it) with the function's per-code coefficients,
    offset is the exact constant no source carries, std_error is the
    standard error of that mean and samples counts each source once.  An
    estimate given only by value and error gets a source of its own.

    Estimates form a small algebra: `a + b` and `a - b` add coefficients
    over shared sources.  When the operands share no source, values add
    with plain float arithmetic and errors in quadrature; when they do,
    value and error are recomputed from the merged coefficients, so a
    per-sample identity (an alternating sum of the angles read from one
    histogram, say) comes out exactly.  `c * a` and `a / m` scale by a
    number.  Exact operands give exact results.
    """
    value: float
    std_error: float = 0.0
    samples: int = 0
    parts: tuple = field(default=(), compare=False, repr=False)
    offset: float = field(default=0.0, compare=False, repr=False)

    def __post_init__(self):
        if self.parts:
            return
        if self.exact:
            object.__setattr__(self, "offset", self.value)
        else:
            object.__setattr__(self, "parts", ((_Unshared(self), 1.0),))

    @property
    def exact(self):
        return self.samples == 0 and self.std_error == 0.0

    def scaled(self, c):
        parts = tuple((src, c * coef) for src, coef in self.parts)
        return MeasureEstimate(c * self.value, abs(c) * self.std_error,
                               self.samples, parts, c * self.offset)

    __mul__ = __rmul__ = scaled

    def __truediv__(self, m):
        parts = tuple((src, coef / m) for src, coef in self.parts)
        return MeasureEstimate(self.value / m, self.std_error / abs(m),
                               self.samples, parts, self.offset / m)

    def __add__(self, other):
        return _combined(self.value + other.value, ((1.0, self), (1.0, other)),
                         math.hypot(self.std_error, other.std_error))

    def __sub__(self, other):
        return _combined(self.value - other.value,
                         ((1.0, self), (-1.0, other)),
                         math.hypot(self.std_error, other.std_error))

    def is_zero(self, tol):
        """|value| <= tol when exact, else within Z_LIMIT standard errors."""
        bound = tol if self.exact else Z_LIMIT * self.std_error
        return abs(self.value) <= bound


class SignHistogram:
    """Monte Carlo sample counts per code.

    Against a region, bit j of a sample's code is set when the sample lies
    on the positive side of plane j, so the mass where all planes of a mask
    are positive is a superset sum of the counts.  A union of regions (and
    a region of more than _CODE_BITS planes) uses the one-bit code
    "inside".
    """

    __slots__ = ("counts", "samples", "bits")

    def __init__(self, counts):
        self.counts = counts
        self.samples = int(counts.sum())
        self.bits = len(counts).bit_length() - 1

    def mass(self, mask):
        """Estimate of twice the share of samples with every bit of mask."""
        inside = (np.arange(len(self.counts)) & mask) == mask
        n = self.samples
        p = int(self.counts[inside].sum()) / n
        sd = math.sqrt(p * (1.0 - p) * n / (n - 1)) if n > 1 else 0.0
        return MeasureEstimate(2.0 * p, 2.0 * sd / math.sqrt(n), n,
                               ((self, 2.0 * inside),))

    def mean(self, coef):
        """Sample mean of coef[code]."""
        return float(self.counts @ coef) / self.samples

    def variance(self, coef):
        """Squared standard error of the sample mean of coef[code]."""
        n = self.samples
        if n <= 1:
            return 0.0
        return (float(self.counts @ (coef - self.mean(coef)) ** 2)
                / ((n - 1) * n))


class _Unshared:
    """The samples of an estimate known only by its value and error."""

    __slots__ = ("value", "std_error", "samples")

    def __init__(self, est):
        self.value = est.value
        self.std_error = est.std_error
        self.samples = est.samples

    def mean(self, coef):
        return coef * self.value

    def variance(self, coef):
        return (coef * self.std_error) ** 2


def region_histogram(est):
    """The SignHistogram est reads as the mass of its whole region, or None.

    A Monte Carlo region mass of the round or subsphere measure is such a
    reading; sums, mixtures of sampled components, ratios and exact values
    are not.
    """
    if len(est.parts) != 1:
        return None
    src, coef = est.parts[0]
    if not isinstance(src, SignHistogram):
        return None
    full = np.arange(len(coef)) == len(coef) - 1
    return src if np.array_equal(coef, 2.0 * full) else None


def _combined(value, terms, independent_error):
    """The estimate sum(c * est) over (c, est) terms.

    value and independent_error are its value and standard error when the
    terms share no source.
    """
    merged = {}
    shared = False
    offset = 0.0
    for c, est in terms:
        offset += c * est.offset
        for src, coef in est.parts:
            if c != 1.0:
                coef = c * coef
            if src in merged:
                shared = True
                coef = merged[src] + coef
            merged[src] = coef
    if not merged:
        return MeasureEstimate(value, independent_error)
    err = independent_error
    if shared:
        value = offset + math.fsum(src.mean(coef)
                                   for src, coef in merged.items())
        err = math.sqrt(math.fsum(src.variance(coef)
                                  for src, coef in merged.items()))
    return MeasureEstimate(value, err, sum(src.samples for src in merged),
                           tuple(merged.items()), offset)


def combine_estimates(terms):
    """Linear combination sum(c * est), value summed with exact rounding.

    The error adds in quadrature over terms that share no source (the
    seeds of distinct regions are derived apart) and is exact otherwise.
    """
    terms = list(terms)
    value = math.fsum(c * e.value for c, e in terms)
    err = math.sqrt(math.fsum((c * e.std_error) ** 2 for c, e in terms))
    return _combined(value, terms, err)


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

def _gaussian_draw(width):
    """Standard Gaussian vectors: directions uniform on S^(width-1).

    They are not normalized, since a sign test does not need it.
    """
    return lambda rng, count: rng.standard_normal((count, width))


def _unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _rng(mc, role, index):
    """Generator of the stream (role, index) under mc.seed."""
    ss = np.random.SeedSequence(entropy=int(mc.seed) & (2**64 - 1),
                                spawn_key=(role, index))
    return np.random.default_rng(ss)


def _block_sum(count, draw, mc):
    """The sum over the blocks of mc.samples draws x of count(b, x).

    Block b draws from a seed derived from (mc.seed, b), so one block of
    samples is live per thread.  Block counts are integers, so the sum does
    not depend on scheduling.
    """
    n = int(mc.samples)
    if n <= 0:
        raise ValueError("samples must be positive")
    blocks = [(b, min(_BLOCK, n - b * _BLOCK))
              for b in range((n + _BLOCK - 1) // _BLOCK)]

    def run(block):
        b, size = block
        return count(b, draw(_rng(mc, _ROLE_BLOCK, b), size))

    return sum(ordered_map(run, blocks))


def _haar_rotations(rng, shape, width):
    """An array of the given shape of Haar-random orthogonal
    width x width matrices.

    Gram-Schmidt on the rows of a Gaussian matrix gives the Q of a QR
    factorization whose R has a positive diagonal, and that Q is Haar
    distributed (F. Mezzadri, Notices AMS 54, 2007).  Batched numpy
    arithmetic, no LAPACK call.
    """
    q = rng.standard_normal(tuple(shape) + (width, width))
    for j in range(width):
        row = q[..., j, :]
        for k in range(j):
            done = q[..., k, :]
            row -= (done * row).sum(axis=-1, keepdims=True) * done
        row /= np.sqrt((row * row).sum(axis=-1, keepdims=True))
    return q


class _PlaneGroup:
    """Consecutive regions with the same number h of planes, stacked.

    A batch of chunks makes one product with the stacked planes, and its
    (chunk, region, plane, sample) view holds every region's signs.  A
    sample's code against a region has bit j set when the sample is on the
    positive side of plane j; a region of more than _CODE_BITS planes codes
    only "inside" (all h positive).  Region r of the group has its codes
    offset by r times its bins, so one bincount counts the whole group.
    """

    def __init__(self, normal_sets):
        self.count = len(normal_sets)
        self.h = len(normal_sets[0])
        self.planes = np.concatenate(normal_sets)
        self.bins = 2 if self.h > _CODE_BITS else 1 << self.h
        self.size = self.count * self.bins
        self.base = (np.arange(self.count)[:, None] * self.bins).astype(
            np.min_scalar_type(self.size - 1))

    def batches(self, size):
        """Row ranges covering a block of size rows: whole chunks, as many
        per range as keep its product within _GROUP_PLANES x _CHUNK
        entries, then the rest."""
        step = _CHUNK * max(1, _GROUP_PLANES // max(len(self.planes), 1))
        full = size - size % _CHUNK
        return ([(row, min(row + step, full)) for row in range(0, full, step)]
                + ([(full, size)] if full < size else []))

    def _by_region(self, flags):
        return flags.reshape(len(flags), self.count, self.h, flags.shape[2])

    def codes(self, dots):
        """Offset codes, (chunk, region, sample), from a batch's products."""
        positive = self._by_region(dots > 0.0).view(np.uint8)
        if self.h > _CODE_BITS:
            return self.base + np.logical_and.reduce(positive, axis=2)
        codes = self.base + positive[:, :, 0]
        for j in range(1, self.h):
            bit = positive[:, :, j].astype(codes.dtype)
            bit <<= j
            codes |= bit
        return codes

    def hits(self, dots):
        """Whether each sample of a batch is inside some region of the
        group or the antipodal image of one, (chunk, sample)."""
        inside = np.logical_and.reduce(self._by_region(dots > 0.0), axis=2)
        inside |= np.logical_and.reduce(self._by_region(dots < 0.0), axis=2)
        return np.logical_or.reduce(inside, axis=1)


def _chunks(x, start, stop):
    """Rows start:stop of a block as (chunk, row, coordinate)."""
    return x[start:stop].reshape(-1, min(_CHUNK, stop - start), x.shape[1])


def _plane_groups(normal_sets):
    """The regions as consecutive _PlaneGroups, each of at most
    _GROUP_PLANES planes unless a single region has more."""
    groups, first = [], 0
    for i in range(1, len(normal_sets) + 1):
        h = len(normal_sets[first])
        if (i == len(normal_sets) or len(normal_sets[i]) != h
                or (i + 1 - first) * h > _GROUP_PLANES):
            groups.append(_PlaneGroup(normal_sets[first:i]))
            first = i
    return groups


def _region_histograms(normal_sets, width, mc):
    """One SignHistogram per region over the same mc.samples Gaussian draws.

    Every chunk of a block is read by region i through a fresh Haar
    rotation.  The rotations of block b come from the stream (region, b):
    group after group, one per (chunk, region of the group).
    """
    groups = _plane_groups(normal_sets)
    offsets = np.cumsum([0] + [group.size for group in groups])

    def count(b, x):
        rng = _rng(mc, _ROLE_REGION, b)
        chunks = -(-len(x) // _CHUNK)
        counts = np.zeros(offsets[-1], dtype=np.int64)
        for group, first, last in zip(groups, offsets, offsets[1:]):
            q = _haar_rotations(rng, (chunks, group.count), width)
            turned = np.einsum("rhw,crwv->crhv",
                               group.planes.reshape(group.count, group.h,
                                                    width), q)
            turned = turned.reshape(chunks, -1, width)
            for start, stop in group.batches(len(x)):
                rows = _chunks(x, start, stop)
                c = start // _CHUNK
                codes = group.codes(turned[c:c + len(rows)]
                                    @ rows.transpose(0, 2, 1))
                counts[first:last] += np.bincount(codes.ravel(),
                                                  minlength=group.size)
        return counts

    counts = _block_sum(count, _gaussian_draw(width), mc)
    return [SignHistogram(counts[start:start + group.bins])
            for group, first in zip(groups, offsets)
            for start in range(first, first + group.size, group.bins)]


def _union_hits(normal_sets, draw, mc):
    """How many of mc.samples draws lie inside some region or the
    antipodal image of one: all its planes positive, or all negative."""
    groups = _plane_groups(normal_sets)

    def count(b, x):
        hit = np.zeros(len(x), dtype=bool)
        for group in groups:
            for start, stop in group.batches(len(x)):
                rows = _chunks(x, start, stop).transpose(0, 2, 1)
                hit[start:stop] |= group.hits(group.planes @ rows).ravel()
        return int(np.count_nonzero(hit))

    return _block_sum(count, draw, mc)


def _region_masses(normal_sets, exact_value, width, mc):
    """Masses of regions on S^(width-1) given by their normals.

    exact_value(normals) gives a closed form or None.  The regions without
    one are sampled from one shared Gaussian draw, cut into chunks of
    _CHUNK rows.  Region i reads each chunk turned by a Haar rotation Q
    drawn afresh for (block, chunk, i): testing Q x against the planes is
    testing x against the planes turned by Q^T.  For independent Haar Q_s,
    Q_t and any x, Q_s x and Q_t x are independent and uniform, so the
    readings of distinct regions have exactly zero covariance: each region
    keeps a histogram of its own with the error bar of a draw of its own.
    Given the rotations, readings of distinct regions do covary, and how
    much depends on the rotations.  With one rotation per region for the
    whole run, a sum over regions is a scale mixture of Gaussians, whose
    tails are heavier than its error bar says; a fresh rotation per chunk
    averages that covariance over the chunks, so the tails are Gaussian.
    """
    mc = mc or MCConfig()
    values = [exact_value(normals) for normals in normal_sets]
    out = [None if v is None else MeasureEstimate(float(v)) for v in values]
    sampled = [i for i, v in enumerate(values) if v is None]
    if sampled:
        hists = _region_histograms([normal_sets[i] for i in sampled],
                                   width, mc)
        for i, hist in zip(sampled, hists):
            out[i] = hist.mass((1 << hist.bits) - 1)
    return out


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
        self._check_region(region)
        return self._eval(region, mc)

    def eval_many(self, regions, mc=None):
        """Measures of several Regions, as a list in input order.

        A pure function of (regions, mc).  By default region i is
        evaluated on its own with a seed derived from (mc, i); a sampled
        round or subsphere measure draws once for all regions instead.
        """
        regions = list(regions)
        for region in regions:
            self._check_region(region)
        return self._eval_many(regions, mc)

    def _eval_many(self, regions, mc):
        return [self._eval(region, derive_mc(mc, _ROLE_REGION, i))
                for i, region in enumerate(regions)]

    def _check_region(self, region):
        if region.ambient_dim != self.dim:
            raise DimensionMismatch(
                "region on S^%d evaluated against a measure on S^%d"
                % (region.ambient_dim, self.dim))

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
        mc = derive_mc(mc, _ROLE_UNION)
        hits = _union_hits([r.normals for r in regions], self._draw(), mc)
        return SignHistogram(np.array([int(mc.samples) - hits,
                                       hits])).mass(1)

    def _draw(self):
        """draw(rng, count): vectors whose directions follow the measure."""
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
        return self._eval_many([region], mc)[0]

    def _eval_many(self, regions, mc):
        return _region_masses([r.normals for r in regions],
                              self._exact_value, self._dim + 1, mc)

    def _exact_value(self, normals):
        if self.monte_carlo and len(normals):
            return None
        return _exact_round_value(self._dim, normals)

    def support_subspaces(self):
        return []

    def _draw(self):
        return _gaussian_draw(self._dim + 1)

    def sample(self, rng, count):
        return _unit_rows(self._draw()(rng, count))

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
        return self._eval_many([region], mc)[0]

    def _eval_many(self, regions, mc):
        k = self.subsphere_dim
        return _region_masses([self._reduced_normals(r) for r in regions],
                              lambda normals: _exact_round_value(k, normals),
                              k + 1, mc)

    def support_subspaces(self):
        return [self._basis]

    def _draw(self):
        base = _gaussian_draw(self._basis.shape[0])
        basis = self._basis
        return lambda rng, count: base(rng, count) @ basis

    def sample(self, rng, count):
        return _unit_rows(self._draw()(rng, count))

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

def _required(spec, key, kind):
    """spec[key]; a missing field is a SchemaError naming the measure type."""
    if key not in spec:
        raise SchemaError("%s measure: missing required field %r"
                          % (kind, key))
    return spec[key]


def _spec_objects(spec, key):
    """spec[key], which must be a list of JSON objects."""
    items = _required(spec, key, spec["type"])
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
        atoms = [(_required(a, "point", kind),
                  float(_required(a, "weight", kind)))
                 for a in _spec_objects(spec, "atoms")]
        return AtomicMeasure(atoms, dim=dim)
    if kind == "subsphere":
        return SubsphereUniform(
            np.asarray(_required(spec, "basis", kind), dtype=float), dim=dim)
    if kind == "mixture":
        comps = [(float(_required(c, "weight", kind)),
                  measure_from_spec(_required(c, "measure", kind), dim))
                 for c in _spec_objects(spec, "components")]
        return Mixture(comps)
    if kind == "restricted":
        base = measure_from_spec(_required(spec, "base", kind), dim)
        if "region" in spec:
            region = Region([Hyperplane(u) for u in spec["region"]], dim)
            return RestrictedNormalized(base, region=region)
        return RestrictedNormalized(
            base, subspace=np.asarray(_required(spec, "subspace", kind),
                                      dtype=float))
    if kind == "orbit":
        gens = [ProjectiveMap(np.asarray(m, dtype=float))
                for m in _required(spec, "generators", kind)]
        return finite_orbit_measure(
            np.asarray(_required(spec, "seed_point", kind), dtype=float),
            gens, int(spec.get("max_orbit", 10000)))
    raise ValueError("unknown measure type %r" % kind)

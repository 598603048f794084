"""Measures on S^n and their evaluation on half-space regions.

Every measure here is antipodally invariant with total mass 2, so it is the
spherical lift of a probability measure on projective space.  Evaluation
returns Estimates, a batch of MeasureEstimate records: exact values carry
std_error 0 and samples 0, Monte Carlo values the standard error of the
mean and the sample count, and the batch the sample histograms they were
read from, so that linear maps of it keep their shared samples.

Monte Carlo evaluation draws Gaussian vectors in fixed blocks with
per-block derived seeds and counts each sample's signs against a
region's planes, packed into bits, into a histogram, so a result is a
pure function of (seed, samples).  A region of at most _TREE_BITS planes
counts every sign code, recovered from the popcounts of the ANDs of each
subset of its planes, a wider one the three bins -R, elsewhere and R; -R
is the first bin and R the last either way, so a mass reads the last.
Every measure answers eval_many as one batch: a round or subsphere
measure draws once for all its sampled regions (see _region_masses), a
mixture asks each component once, a restriction asks its base once.  A
call sampling G regions (1 for a union) reads chunks of _CHUNK / f rows,
f the largest of 4, 2 and 1 with f G <= 8 (_layout): a block of readings
draws at most _ROWS / f fresh rows and reads each of them up to
f _BLOCK / _ROWS times, each time through a fresh Haar rotation, so reading
i is fresh row i mod (_ROWS / f) and chunk rows times reads per row stay
_CHUNK x 4 in every layout.  The error bars stay exact (see
_region_masses), and samples counts readings.
A union reads such readings for one region of its distinct planes and
counts those inside some region or its antipode from their packed signs.
It samples only what is left undecided: a region of closed-form mass 0
is left out, and a union draws nothing when no region is left or when its
regions meet every sign code of its planes.

The draw is float32 Box-Muller on uniforms of the generator's grid
k 2^-24, read from its raw words, with 0 moved to 2^-25 so that no
coordinate is ever 0.  Grid and float32 rounding bias the law by order
2^-24 per uniform, about 1e-7 of a region mass, below any standard error
short of 1e14 samples; no estimate sees it at all, since every reading
is turned by a Haar rotation, which makes any nonzero sample a uniform
direction.  Sign products are float32: the Haar-turned planes are
computed in float64 and rounded once, and a product can flip only a
reading within about 2.4e-7 relative of a plane (gamma_3, Higham 2002,
section 3.1), a bias of the draw's order.
"""

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import (BoundaryAtom, DimensionMismatch, NonAtomicBase,
                     NotAGroup, OrbitOverflow, SchemaError,
                     SingularMatrix, UnsupportedMeasure)
from .geom import ProjectiveMap, Region, apply_map
from ._util import (UNIT_TOL, MATCH_TOL, PointIndex, derive_seed, is_integer,
                    is_number, normalized, numeric_array,
                    projective_closure, scaled_flat)

ATOM_TOL = 1e-12
Z_LIMIT = 4.0     # standard errors a Monte Carlo zero may deviate by
_BLOCK = 1 << 17
_CODE_BITS = 16   # planes of a union whose codes _covers lists one by one
_CHUNK = 2048     # rows per chunk: a region turns each by its own rotation
_ROWS = 1 << 15   # fresh rows per block of readings, a multiple of _CHUNK;
                  # both / 2 or / 4 when at most 4 or 2 regions (_layout)
_GROUP_PLANES = 64   # a product: at most 64 x _CHUNK float32 entries (512 KB)
_TREE_BITS = 6    # planes up to which a region counts every code
_LEAF_WORDS = 1 << 16   # words of a group's slot rows per counting pass

# spawn-key roles keeping derived seed streams disjoint
_ROLE_BLOCK = 0
_ROLE_COMPONENT = 1
_ROLE_RESTRICT = 2
_ROLE_REGION = 3      # the Haar rotations of one block of readings
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
    """A measure value with its statistical error: std_error 0 and samples
    0 when exact, else the standard error of a Monte Carlo mean and the
    number of samples it read (see Estimates)."""
    value: float
    std_error: float = 0.0
    samples: int = 0

    @property
    def exact(self):
        return self.samples == 0 and self.std_error == 0.0

    def is_zero(self, tol):
        """|value| <= tol when exact, else within Z_LIMIT standard errors."""
        bound = tol if self.exact else Z_LIMIT * self.std_error
        return abs(self.value) <= bound


def _runs(keys):
    """Whether each key starts a run of equal consecutive keys."""
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return new


class IndexMap:
    """The linear map out[o] = sum of scale * x[i] over its triples
    (o, i, scale) into size entries, added in triple order from 0, of
    Estimates or of a vector of floats or Fractions (an object array)."""

    __slots__ = ("size", "out", "into", "scale")

    def __init__(self, size, out, into, scale):
        self.size = size
        self.out = np.asarray(out, dtype=np.intp)
        self.into = np.asarray(into, dtype=np.intp)
        self.scale = np.full(self.out.shape, scale)

    def __call__(self, x):
        if isinstance(x, Estimates):
            return x.mapped(self)
        y = np.zeros(self.size, dtype=x.dtype)
        np.add.at(y, self.out, self.scale * x[self.into])
        return y


class Estimates:
    """A batch of estimates, a sequence of MeasureEstimate records, each an
    exact offset plus the mean of a per-sample function linear in the codes
    of its sources laid end to end: the triples (rows, cols, coef), sorted
    by row and code with no (row, code) twice, give estimate rows[e] the
    coefficient coef[e] on code cols[e].

    A source is an array of Monte Carlo sample counts.  A region's has -R
    in its first bin and R in its last, which a mass and a sampled k read
    (simplex.k_and_mass): up to _TREE_BITS planes a bin per code, bit j
    set when a sample lies on the positive side of plane j, so the mass
    where all planes of a mask are positive is a superset sum of the
    counts (shares); a wider region's are -R, elsewhere and R.  A union's
    source counts its misses and hits (see _union_histogram).

    An estimate without coefficients is exact.  Any other adds to its
    offset the exactly rounded sum, over the sources it reads, of the
    sample mean of its coefficients; its squared error sums their centered
    quadratic forms over the counts, and its samples add the count totals
    of those sources.  So a per-sample identity, whose coefficients cancel
    code by code, is exactly 0 +- 0.  IndexMaps, sums, subtraction of or
    from numbers and division by a number per estimate act on whole
    batches.  histograms[i] is the source whose whole-region mass estimate
    i reads, or None.
    """

    __array_ufunc__ = None      # an ndarray operand defers to the batch

    def __init__(self, offset, rows=(), cols=(), coef=(), sources=(),
                 histograms=None):
        self.offset = np.asarray(offset, dtype=float)
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.coef = np.asarray(coef, dtype=float)
        self.sources = sources      # shared by the batches mapped from it
        self.histograms = histograms or (None,) * len(self.offset)
        self._records = None

    @classmethod
    def masses(cls, offset, rows, hists):
        """offset, except that estimate rows[j] reads hists[j]: twice the
        share of its last code, the mass of its whole region."""
        read = dict(zip(rows, hists))
        return cls(offset, rows, np.cumsum([len(h) for h in hists]) - 1,
                   [2.0] * len(rows), list(hists),
                   [read.get(i) for i in range(len(offset))])

    def shares(self, entries, masks):
        """Entry after entry, mask after mask, the share of the samples of
        the entry's whole-region histogram (all of one size, a code per
        sign pattern of at most _TREE_BITS planes) whose codes have every
        bit of the mask; a mask reads its supersets in ascending order."""
        size = len(self.histograms[entries[0]]) if entries else 0
        masks = np.asarray(masks, dtype=np.intp)
        mask, code = np.nonzero((masks[:, None] & ~np.arange(size)) == 0)
        first = self.cols[np.searchsorted(self.rows, entries)] + 1 - size
        rows = np.arange(len(entries))[:, None] * len(masks) + mask
        return Estimates(np.zeros(len(entries) * len(masks)), rows.ravel(),
                         (first[:, None] + code).ravel(), np.ones(rows.size),
                         self.sources)

    def readings(self):
        """Readings on codes some estimate weighs by a nonzero coefficient."""
        counts = np.concatenate([[]] + list(self.sources))
        weighed = np.bincount(self.cols, self.coef != 0.0, len(counts))
        return int(counts[weighed > 0].sum())

    @classmethod
    def stack(cls, batches):
        """The batches one after another; batches of one sources list read
        its codes together, and no source lies in two lists."""
        width, shift, sources = 0, {}, []
        for batch in batches:
            if id(batch.sources) not in shift:
                shift[id(batch.sources)] = width
                width += sum(map(len, batch.sources))
                sources += batch.sources
        first = np.cumsum([0] + [len(batch) for batch in batches])
        return cls(*(np.concatenate([[]] + parts) for parts in (
            [batch.offset for batch in batches],
            [batch.rows + f for batch, f in zip(batches, first)],
            [batch.cols + shift[id(batch.sources)] for batch in batches],
            [batch.coef for batch in batches])), sources)

    def mapped(self, index_map, fsum=False):
        """index_map of the batch: offsets added in its triple order, or
        with fsum exactly rounded; coefficients composed, and merged per
        (row, code) in triple order."""
        m = index_map
        offset = m(self.offset)
        if fsum:
            terms = [[] for _ in range(m.size)]
            for o, x in zip(m.out.tolist(),
                            (m.scale * self.offset[m.into]).tolist()):
                terms[o].append(x)
            offset = [math.fsum(t) for t in terms]
        ptr = np.searchsorted(self.rows, np.arange(len(self) + 1))
        lo, count = ptr[m.into], ptr[m.into + 1] - ptr[m.into]
        term = np.repeat(np.arange(len(m.into)), count)
        entry = np.arange(len(term)) + np.repeat(lo - np.cumsum(count)
                                                 + count, count)
        width = int(self.cols.max(initial=0)) + 1
        key = m.out[term] * width + self.cols[entry]
        order = np.argsort(key, kind="stable")
        key = key[order]
        new = _runs(key)
        return Estimates(offset, key[new] // width, key[new] % width,
                         np.bincount(np.cumsum(new) - 1, (
                             m.scale[term] * self.coef[entry])[order]),
                         self.sources)

    def __add__(self, other):
        size = len(self)
        return Estimates.stack([self, other]).mapped(IndexMap(
            size, np.tile(np.arange(size), 2), np.arange(2 * size), 1))

    def __sub__(self, number):
        return Estimates(self.offset - number, self.rows, self.cols,
                         self.coef, self.sources)

    def __rsub__(self, number):
        return Estimates(number - self.offset, self.rows, self.cols,
                         -self.coef, self.sources)

    def __truediv__(self, divisors):
        return Estimates(self.offset / divisors, self.rows, self.cols,
                         self.coef / divisors[self.rows], self.sources)

    def __len__(self):
        return len(self.offset)

    def __getitem__(self, i):
        """The record or records at i, all computed at the first call."""
        if self._records is None:
            size, coef, src = len(self), self.coef, self.sources
            of = np.repeat(np.arange(len(src)), np.array(
                [len(s) for s in src], int))[self.cols]
            counts = np.concatenate([[]] + list(src))[self.cols]
            new = _runs(self.rows * len(src) + of)      # a (row, source) pair
            pair, row, of = np.cumsum(new) - 1, self.rows[new], of[new]
            n = np.array([s.sum() for s in src], dtype=int)[of]
            mean = np.bincount(pair, coef * counts) / n
            dev = coef - mean[pair]
            var = (np.bincount(pair, counts * dev * dev) + (
                n - np.bincount(pair, counts)) * mean * mean) / np.maximum(
                    (n - 1) * n, 1)
            # the offset plus the exactly rounded sum of the source means
            value, means = self.offset.copy(), mean.tolist()
            first = np.flatnonzero(_runs(row))
            value[row[first]] += [math.fsum(means[a:b]) for a, b in zip(
                first.tolist(), first[1:].tolist() + [len(means)])]
            self._records = [MeasureEstimate(*r) for r in zip(
                value.tolist(), np.sqrt(np.bincount(row, var, size)).tolist(),
                np.bincount(row, n, size).astype(int).tolist())]
        return self._records[i]


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
    """draw(rng, count): count x width float32 standard Gaussian vectors.

    Box-Muller on float32 uniforms u: the first half of them gives radii
    sqrt(-2 log u), the second angles 2 pi u, and the radii times their
    cos and sin fill the two halves of the block.  The uniforms are those
    of rng.random(dtype=np.float32), bit for bit, built from the
    generator's raw 64-bit words: numpy makes each float32 uniform from
    the top 24 bits of a 32-bit output, (w >> 8) 2^-24, and PCG64 hands
    out the low half of each word before its high half.  The transform
    runs in place in the array of raw words, which holds the block; the
    cosines pass through one scratch array that draw keeps from call to
    call, so a run of draws allocates only the raw words.
    """
    cosines = np.empty(0, dtype=np.float32)

    def draw(rng, count):
        nonlocal cosines
        half = -(-count * width // 2)
        outputs = rng.bit_generator.random_raw(half).view(np.uint32)
        outputs >>= 8
        u = outputs.view(np.float32)
        # exact below 2^24; np.multiply(outputs, ..., out=u) would first
        # copy its input, which overlaps u
        np.copyto(u, outputs, casting="unsafe")
        u *= 2.0 ** -24
        np.maximum(u, 2.0 ** -25, out=u)   # 0 moves to its cell's midpoint
        radius, angle = u[:half], u[half:]
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle *= 2.0 * math.pi
        if len(cosines) < half:
            cosines = np.empty(half, dtype=np.float32)
        cos = np.cos(angle, out=cosines[:half])
        np.sin(angle, out=angle)
        angle *= radius
        radius *= cos
        return u[:count * width].reshape(count, width)
    return draw


def _rng(mc, role, index):
    """Generator of the stream (role, index) under mc.seed."""
    ss = np.random.SeedSequence(entropy=int(mc.seed) & (2**64 - 1),
                                spawn_key=(role, index))
    return np.random.default_rng(ss)


def _haar_rotations(rng, shape, width):
    """An array of the given shape of Haar-random orthogonal
    width x width matrices.

    Gram-Schmidt on the rows of a Gaussian matrix gives the Q of a QR
    factorization whose R has a positive diagonal, and that Q is Haar
    distributed (F. Mezzadri, Notices AMS 54, 2007).  Batched numpy
    arithmetic, no LAPACK call.

    The block is drawn as shape + (width, width) and orthonormalized in a
    contiguous (width, width) + shape copy, so that row j of every matrix
    is one array and a dot product adds whole arrays (256 width-5
    rotations: 0.25 ms, against 0.37-0.51 ms reducing each short row).
    Below width 8 that adds in the order of a row-wise reduction, bit for
    bit; from width 8 on numpy sums a contiguous row pairwise, so the two
    differ by rounding.  The result is a (..., width, width) view.
    """
    q = rng.standard_normal(tuple(shape) + (width, width))
    rows = np.moveaxis(q, (-2, -1), (0, 1)).copy()
    for j in range(width):
        row = rows[j]
        for k in range(j):
            done = rows[k]
            row -= (done * row).sum(axis=0) * done
        row /= np.sqrt((row * row).sum(axis=0))
    return np.moveaxis(rows, (0, 1), (-2, -1))


class _PlaneGroup:
    """Consecutive regions with the same number h of planes, stacked, read
    in chunks of chunk rows.

    A batch of chunks makes one product with the stacked planes, and its
    (chunk, region, plane, sample) view holds every region's signs, packed
    into bits for packed_counts: 2^h bins, one per code, up to _TREE_BITS
    planes, and the three bins (-R, elsewhere, R) above.  A region keeps
    slots rows of packed words: with a bin per code one per nonempty
    subset S of its planes, row S - 1 for S read as a bit mask, so that
    plane j packs into row 2^j - 1 and packed_counts fills the others;
    else one per plane.  rows lists the row of each stacked plane.
    """

    def __init__(self, normal_sets, chunk, bins=None):
        self.count = len(normal_sets)
        self.h = len(normal_sets[0])
        self.planes = np.concatenate(normal_sets)
        self.bins = bins or (1 << self.h if self.h <= _TREE_BITS else 3)
        self.size = self.count * self.bins
        self.zero = np.arange(0, self.size, self.bins)   # bins of -R
        self.chunk = chunk
        self.step = max(1, _GROUP_PLANES * _CHUNK
                        // (max(len(self.planes), 1) * chunk))
        every = self.bins == 1 << self.h
        self.slots = self.bins - 1 if every else self.h
        own = (1 << np.arange(self.h)) - 1 if every else np.arange(self.h)
        self.rows = (np.arange(self.count)[:, None] * self.slots
                     + own).ravel()

    def batches(self, size):
        """Batches (first chunk, stop chunk, rows per chunk) covering a
        block of size readings: whole chunks, as many per batch as keep its
        product within _GROUP_PLANES x _CHUNK entries and its chunks within
        one window of _ROWS / _CHUNK, then the rest as one short chunk."""
        window = _ROWS // _CHUNK
        full, rest = divmod(size, self.chunk)
        return ([(c, min(c + self.step, w + window, full), self.chunk)
                 for w in range(0, full, window)
                 for c in range(w, min(w + window, full), self.step)]
                + ([(full, full + 1, rest)] if rest else []))

    def packed_counts(self, words, ones):
        """The bins of every region, (region, bin) flattened, from its slot
        rows of uint64 words, (region slot, word), at most 2^17 readings:
        a wide region's -R and R by a NOR and an AND of its planes.  Up to
        _TREE_BITS planes, the row of S | 2^j, S a subset of planes 0 to
        j - 1, is the row of S AND plane j, written in place subset size
        after subset size; np.bitwise_count counts each row's set bits into
        the uint8 scratch ones, and its sum is g(S), the readings positive
        on every plane of S, g(empty set) every reading.  The readings of
        code T are then f(T) = sum over S containing T of (-1)^|S - T| g(S)
        (Moebius inversion over subsets, G.-C. Rota, Z. Wahrscheinlichkeits-
        theorie 2, 1964), h subtractions over the 2^h bins.  Bits clear in
        every plane, a short chunk's padding among them, count in the first
        bin."""
        planes = words.reshape(self.count, self.slots, -1)
        if self.h > _TREE_BITS:
            ends = [np.bitwise_count(w).sum(axis=1, dtype=np.int64) for w in (
                ~np.bitwise_or.reduce(planes, axis=1),
                np.bitwise_and.reduce(planes, axis=1))]
            return np.column_stack(
                [ends[0], planes.shape[2] * 64 - sum(ends), ends[1]]).ravel()
        for j in range(1, self.h):
            row = (1 << j) - 1                  # the row of plane j
            np.bitwise_and(planes[:, :row], planes[:, row:row + 1],
                           out=planes[:, row + 1:2 * row + 1])
        ones = ones[:planes.size].reshape(planes.shape)
        np.bitwise_count(planes, out=ones)
        codes = np.empty((self.count, self.bins), dtype=np.int64)
        codes[:, 0] = planes.shape[2] * 64
        codes[:, 1:] = ones.sum(axis=2, dtype=np.uint32)
        for j in range(self.h):
            split = codes.reshape(self.count, -1, 2, 1 << j)
            split[:, :, 0] -= split[:, :, 1]
        return codes.ravel()


class _UnionGroup(_PlaneGroup):
    """The k planes of a union as one region whose packed signs count as
    (miss, hit).  A need is a tuple of signed plane numbers, j + 1 met
    where plane j is positive and -(j + 1) where it is not; the needs
    become rows of plane indices and XOR masks (all ones for a negative
    number), a shorter need repeating its first number."""

    def __init__(self, planes, needs, chunk):
        super().__init__([planes], chunk, bins=2)
        longest = max(map(len, needs))
        signed = np.array([need + need[:1] * (longest - len(need))
                           for need in sorted(needs)])
        self.index = abs(signed) - 1
        self.flip = (signed < 0) * np.uint64(2**64 - 1)
        # a reading clear in every plane, the padding of a short chunk
        # among them, is a hit when some need has no positive plane
        self.zero = np.array([int((signed < 0).all(axis=1).any())])

    def packed_counts(self, words, ones):
        """(misses, hits) of the readings packed into uint64 words,
        (plane, word), ones unused: per need the AND over its planes of the
        plane's words XOR its mask, ORed over the needs, a slice of needs at
        a time so that each gather stays within _GROUP_PLANES x _CHUNK
        words."""
        words = words.reshape(self.h, -1)
        hit = np.zeros(words.shape[1], dtype=np.uint64)
        step = max(1, _GROUP_PLANES * _CHUNK // words.shape[1])
        for first in range(0, len(self.index), step):
            index = self.index[first:first + step]
            flip = self.flip[first:first + step, :, None]
            met = words[index[:, 0]] ^ flip[:, 0]
            for j in range(1, index.shape[1]):
                met &= words[index[:, j]] ^ flip[:, j]
            hit |= np.bitwise_or.reduce(met, axis=0)
        hits = int(np.bitwise_count(hit).sum(dtype=np.int64))
        return np.array([hit.size * 64 - hits, hits])


def _plane_groups(normal_sets, chunk):
    """The regions as consecutive _PlaneGroups read in chunks of chunk
    rows, each of at most _GROUP_PLANES planes unless a single region has
    more."""
    groups, first = [], 0
    for i in range(1, len(normal_sets) + 1):
        h = len(normal_sets[first])
        if (i == len(normal_sets) or len(normal_sets[i]) != h
                or (i + 1 - first) * h > _GROUP_PLANES):
            groups.append(_PlaneGroup(normal_sets[first:i], chunk))
            first = i
    return groups


def _layout(count):
    """(rows per chunk, fresh rows per block) of a call sampling count
    regions: _CHUNK and _ROWS divided by the largest f in {4, 2, 1} with
    f * count <= 8.  A block then turns at most 512 rotations, as many as
    8 regions read at f = 1, and a full block reads each fresh row 4 f
    times, so chunk rows times reads per row stay _CHUNK x 4."""
    f = 4 if count <= 2 else 2 if count <= 4 else 1
    return _CHUNK // f, _ROWS // f


def _region_histograms(normal_sets, width, mc, needs=None):
    """One histogram per region over the same mc.samples readings, or
    with needs, the (miss, hit) histogram of the one region's planes
    counted by _UnionGroup.

    A histogram is an int64 array of counts with -R in its first bin and
    R in its last: a region of h <= _TREE_BITS planes has one bin per
    code, bit j set where a reading lies on the positive side of plane j
    (see Estimates), and a wider one the three bins (-R, elsewhere, R).

    Block b of _BLOCK readings draws from the stream (block, b), and the
    blocks' integer counts are summed in order.  The layout follows the
    number G of regions sampled (1 for a union): _layout(G) gives chunks
    of chunk rows and a block of at most fresh_rows fresh Gaussian rows,
    copied into a float32 buffer laid out (chunk, coordinate, row), one
    per call, reused block after block.  Each group's planes are turned
    in float64 and rounded to float32 once per block, so every product and
    sign test runs in float32.  Reading i is fresh row i mod fresh_rows,
    so reading chunk c is row chunk c mod (_ROWS / _CHUNK), 16 in every
    layout, and no batch crosses that window.  Every chunk of a block is
    read by region i through a fresh Haar rotation.  The rotations of
    block b come from the stream (region, b): group after group, one per
    (chunk, region of the group).  A product holds at most _GROUP_PLANES x
    _CHUNK entries, so a group of short chunks batches more of them per
    product.

    Every group packs the signs of each product, 64 readings of a chunk
    per uint64 word, into its planes' slot rows (see _PlaneGroup) of a
    (slot row, chunk, byte) buffer, and counts them by
    _PlaneGroup.packed_counts whenever the next batch would overflow
    _LEAF_WORDS words of slot rows, so that a pass stays in cache; a pass
    takes one batch at least and one block at most.  The padding of a
    short last chunk is taken off the first bins (group.zero).

    The row buffer, the product and its signs, the sign buffer and the
    popcount bytes are one workspace per call, reused block after block
    through out= arguments and views, and the draw keeps its own scratch:
    a block allocates the generator's raw words, its Haar rotations and
    arrays of a few KB, nothing else.
    """
    n = int(mc.samples)
    if n <= 0:
        raise ValueError("samples must be positive")
    chunk, fresh_rows = _layout(len(normal_sets))
    groups = (_plane_groups(normal_sets, chunk) if needs is None
              else [_UnionGroup(normal_sets[0], needs, chunk)])
    offsets = np.cumsum([0] + [group.size for group in groups])
    fresh = _gaussian_draw(width)
    window = _ROWS // _CHUNK
    words = -(-chunk // 64)             # uint64 words of one packed chunk
    block = -(-min(n, _BLOCK) // chunk)     # chunks of the first block
    entries, shapes = 0, []
    for group in groups:
        batch = min(group.step, window, block)  # chunks of its longest batch
        entries = max(entries, min(len(group.planes), _GROUP_PLANES)
                      * batch * chunk)
        height = group.count * group.slots
        shapes.append((height, min(max(_LEAF_WORDS // (height * words),
                                       batch), block), 8 * words))
    rows = np.empty((window, width, chunk), dtype=np.float32)
    product = np.empty(entries, dtype=np.float32)
    positive = np.empty(entries, dtype=bool)
    signs = np.empty(max(map(math.prod, shapes)), dtype=np.uint8)
    ones = np.empty(len(signs) // 8, dtype=np.uint8)
    # each group's (slot row, chunk, byte) view of the one sign buffer
    views = [signs[:math.prod(shape)].reshape(shape) for shape in shapes]

    def count(b):
        size = min(_BLOCK, n - b * _BLOCK)
        x = fresh(_rng(mc, _ROLE_BLOCK, b), min(size, fresh_rows))
        full, rest = divmod(len(x), chunk)
        rows[:full] = x[:full * chunk].reshape(full, chunk,
                                               width).transpose(0, 2, 1)
        if rest:
            rows[full, :, :rest] = x[full * chunk:].T
        del x                   # free the draw before the products
        rng = _rng(mc, _ROLE_REGION, b)
        chunks = -(-size // chunk)
        counts = np.zeros(offsets[-1], dtype=np.int64)
        for group, bits, first, last in zip(groups, views, offsets,
                                            offsets[1:]):
            q = _haar_rotations(rng, (chunks, group.count), width)
            turned = group.planes.reshape(group.count, group.h, width) @ q
            turned = turned.reshape(chunks, -1, width).astype(np.float32)
            filled = 0                  # chunks packed and not yet counted
            for start, stop, length in group.batches(size):
                batch = rows[start % window:][:stop - start, :, :length]
                if filled + stop - start > bits.shape[1]:
                    counts[first:last] += group.packed_counts(
                        bits[:, :filled].view(np.uint64), ones)
                    filled = 0
                into = bits[:, filled:filled + stop - start]
                # a union of many planes multiplies _GROUP_PLANES at a time
                for p in range(0, len(group.planes), _GROUP_PLANES):
                    stack = turned[start:stop, p:p + _GROUP_PLANES]
                    shape = stack.shape[:2] + (length,)
                    dots = product[:math.prod(shape)].reshape(shape)
                    np.matmul(stack, batch, out=dots)
                    above = positive[:dots.size].reshape(shape)
                    np.greater(dots, 0.0, out=above)
                    packed = np.packbits(above, axis=-1, bitorder="little")
                    into[group.rows[p:p + _GROUP_PLANES], :,
                         :packed.shape[2]] = packed.transpose(1, 0, 2)
                if packed.shape[2] < bits.shape[2]:     # a short chunk
                    into[group.rows, :, packed.shape[2]:] = 0
                filled += stop - start
            counts[first:last] += group.packed_counts(
                bits[:, :filled].view(np.uint64), ones)
            # the padding bits of short chunks read as clear in every plane
            counts[first + group.zero] -= chunks * words * 64 - size
        return counts

    counts = sum(count(b) for b in range(-(-n // _BLOCK)))
    return [counts[start:start + group.bins]
            for group, first in zip(groups, offsets)
            for start in range(first, first + group.size, group.bins)]


def _covers(needs, k):
    """Whether every sign code of k planes meets some need (see
    _UnionGroup), decided for k <= _CODE_BITS: a need of h planes meets
    2^(k-h) codes, so the needs cover only if sum 2^-h >= 1, and then the
    codes are checked one by one, dropping those met need after need."""
    if k > _CODE_BITS or math.fsum(2.0 ** -len(n) for n in needs) < 1.0:
        return False
    left = np.arange(1 << k)
    for need in sorted(needs, key=len):
        mask = sum(1 << (abs(j) - 1) for j in need)
        want = sum(1 << (j - 1) for j in need if j > 0)
        left = left[(left & mask) != want]
        if not left.size:
            return True
    return False


def _union_histogram(normal_sets, width, mc):
    """The (miss, hit) counts of mc.samples readings, a hit lying in
    some region or its antipodal image.

    A PointIndex merges the normals up to sign within MATCH_TOL into k
    planes, a normal's sign that of its dot with the stored row.  A region
    needs its planes so signed, its antipode the reverse; one listing a
    plane with both signs is empty.  The readings are those of one region
    of the k planes (see _region_masses: independent, so the binomial
    error bar is exact).  A region without planes, or needs that meet
    every sign code of the k planes (_covers), make every reading a hit,
    and no needs make none, all three without a draw: each reading packs
    some code, so the draw would count exactly that."""
    index, needs, signed = PointIndex(MATCH_TOL), set(), {}
    for normals in normal_sets:
        if not len(normals):
            return np.array([0, mc.samples])
        need = set()
        for u in normals:
            key = u.tobytes()   # a repeated normal keeps its first match
            if key not in signed:
                plane = index.insert(u) + 1       # a signed plane number
                signed[key] = (plane if u @ index.rows[plane - 1] > 0.0
                               else -plane)
            need.add(signed[key])
        if not any(-j in need for j in need):
            need = tuple(sorted(need, key=abs))
            needs.update((need, tuple(-j for j in need)))
    if not needs:
        return np.array([mc.samples, 0])
    if _covers(needs, len(index.rows)):
        return np.array([0, mc.samples])
    return _region_histograms([np.array(index.rows)], width, mc, needs)[0]


def _region_masses(normal_sets, exact_value, width, mc):
    """Masses of regions on S^(width-1) given by their normals.

    exact_value(normals) gives a closed form or None.  The regions without
    one are sampled from one shared Gaussian draw, cut into chunks of
    _CHUNK / f rows (_layout).  Region i reads each chunk turned by a Haar
    rotation Q drawn afresh for (block, chunk, i): testing Q x against the
    planes is testing x against the planes turned by Q^T.  For independent
    Haar Q_s, Q_t and any x, Q_s x and Q_t x are independent and uniform,
    so the readings of distinct regions have exactly zero covariance: each
    region keeps a histogram of its own with the error bar of a draw of
    its own.  Given the rotations, readings of distinct regions do covary,
    and how much depends on the rotations.  With one rotation per region
    for the whole run, a sum over regions is a scale mixture of Gaussians,
    whose tails are heavier than its error bar says; a fresh rotation per
    chunk averages that covariance over the chunks, so the tails are
    Gaussian.

    Reuse: a full block reads each fresh row 4 f times, f = 4, 2 or 1 as
    at most 2, at most 4 or more regions are sampled (see _layout and
    _region_histograms).  For independent Haar Q, Q' and fixed x, Q x and
    Q' x are independent and uniform, and rows within a chunk are iid, so
    any two readings are independent (one row through two rotations, two
    rows through one or two): every variance and covariance, which depend
    only on pairs, is that of a fresh row per reading.  Tails do depend on
    the number of distinct row chunks, as the readings of one row covary
    given the rotations: one 2048-row chunk read 4 times raised the
    link-gap kurtosis from 3.16 to 3.73, and every layout keeps 16
    distinct chunks per block.  The fourth-order term that reuse adds
    pairs two rows of one chunk read through two rotations, so it scales
    with chunk rows times reads per row, _CHUNK x 4 in every layout: the
    short chunks of few regions keep the tails of f = 1.  samples counts
    readings, not fresh rows.
    """
    mc = mc or MCConfig()
    values = [exact_value(normals) for normals in normal_sets]
    sampled = [i for i, v in enumerate(values) if v is None]
    hists = (_region_histograms([normal_sets[i] for i in sampled], width, mc)
             if sampled else [])
    return Estimates.masses([0.0 if v is None else float(v) for v in values],
                            sampled, hists)


# ---------------------------------------------------------------------------
# measure interface

def _span_distance(rows, basis, axis=None):
    """Norm of rows minus their projection onto the span of the orthonormal
    rows of basis: one per row with axis=1, else the Frobenius norm."""
    return np.linalg.norm(rows - (rows @ basis.T) @ basis, axis=axis)


def _band(dots):
    """Where an atom (row) lies within ATOM_TOL of a region plane (column)
    while no strict sign test, a dot below -ATOM_TOL, excludes it."""
    return ((np.abs(dots) <= ATOM_TOL)
            & ~np.any(dots < -ATOM_TOL, axis=-1, keepdims=True))


def _atoms_inside(points, region):
    """Whether each atom passes every strict sign test of region; an atom
    in the _band of a region plane raises BoundaryAtom naming both."""
    dots = points @ region.normals.T
    band = _band(dots)
    if band.any():
        i, j = np.argwhere(band)[0]
        raise BoundaryAtom(
            "atom %s lies on region hyperplane %s" %
            (np.array2string(points[i], precision=6),
             np.array2string(region.normals[j], precision=6)),
            atom=points[i], normal=region.normals[j])
    return np.all(dots > 0.0, axis=1)


class MeasureSpec(ABC):
    """A measure on S^n: antipodally invariant, total mass 2."""

    @property
    @abstractmethod
    def dim(self):
        """Dimension n of the sphere the measure lives on."""

    def eval(self, region, mc=None):
        """Measure of a Region, exact where supported, else Monte Carlo."""
        return self.eval_many([region], mc)[0]

    def eval_many(self, regions, mc=None):
        """Measures of several Regions, as Estimates in input order.

        A pure function of (regions, mc), answered as one batch: a sampled
        round or subsphere measure draws once for all regions, a mixture
        asks each component once for all of them, and a region restriction
        asks its base once for A, -A and the regions R∩A and R∩-A of
        every region R.
        """
        return self._eval_many(self._checked(regions), mc)

    @abstractmethod
    def _eval_many(self, regions, mc):
        ...

    def _checked(self, regions):
        """regions as a list, each a region of this measure's sphere."""
        regions = list(regions)
        for region in regions:
            if region.ambient_dim != self.dim:
                raise DimensionMismatch(
                    "region on S^%d evaluated against a measure on S^%d"
                    % (region.ambient_dim, self.dim))
        return regions

    @abstractmethod
    def support_subspaces(self):
        """Linear subspaces carrying concentrated mass.

        Returned as orthonormal row-basis arrays; the uniform measure
        returns [].  Used by transversality checking.
        """

    def union_mass(self, regions, mc=None):
        """Mass of the union of the regions and their antipodal images."""
        return self._union_mass(self._checked(regions), mc)[0]

    @abstractmethod
    def _union_mass(self, regions, mc):
        """The union mass as Estimates of one."""

    def _subspace_mass(self, basis, region):
        """Mass on {[V] intersect region}, or on all of [V] for region
        None, exact; the orthonormal rows of basis span V.  Representable
        for atoms lying in V and a uniform support inside V; a uniform
        measure gives 0 to a V that does not contain its support."""
        raise UnsupportedMeasure(
            "subspace restriction over %s is not representable"
            % type(self).__name__)


class _UniformMeasure(MeasureSpec):
    """The uniform measure on a great subsphere S^(_width - 1), read
    through region normals reduced to the subsphere's coordinates: a closed
    form (_exact_value) or one Gaussian draw of width _width per batch of
    regions (_region_masses) or per union (_union_histogram, which reads
    one region of the union's distinct planes, once the regions of
    closed-form mass 0 are left out)."""

    def _eval_many(self, regions, mc):
        return _region_masses([self._reduced_normals(r) for r in regions],
                              self._exact_value, self._width, mc)

    def _union_mass(self, regions, mc):
        # a region of closed-form mass 0 adds nothing to the union
        normal_sets = [self._reduced_normals(r) for r in regions]
        live = [u for u in normal_sets if self._exact_value(u) != 0.0]
        if normal_sets and not live:
            return Estimates([0.0])
        return Estimates.masses([0.0], [0], [_union_histogram(
            live, self._width, derive_mc(mc, _ROLE_UNION))])

    def _subspace_mass(self, basis, region):
        support = (self.support_subspaces() or [np.eye(self._width)])[0]
        if _span_distance(support, basis) > MATCH_TOL:
            return 0.0
        if region is None:
            return 2.0
        est = self.eval(region)
        if not est.exact:
            raise UnsupportedMeasure(
                "subspace restriction of a Monte Carlo %r" % self)
        return est.value


class RoundMeasure(_UniformMeasure):
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
        self._width = self._dim + 1

    @property
    def dim(self):
        return self._dim

    def _reduced_normals(self, region):
        return region.normals

    def _exact_value(self, normals):
        if self.monte_carlo and len(normals):
            return None
        return _exact_round_value(self._dim, normals)

    def support_subspaces(self):
        return []

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
            points += [p, -p]
            weights += [0.5 * weight, 0.5 * weight]
        self._merge(points, weights, dim)

    @classmethod
    def from_sphere_atoms(cls, points, weights, dim=None):
        """Build from explicit sphere atoms (already symmetric)."""
        self = cls.__new__(cls)
        self._merge([normalized(p) for p in points],
                    [float(w) for w in weights], dim)
        return self

    @classmethod
    def dirac(cls, coords, total=2.0):
        """The antipodalized point mass; total=2 is the probability lift."""
        return cls([(coords, total)])

    def _merge(self, points, weights, dim):
        """Store the atoms, adding each weight to the nearest earlier atom
        within ATOM_TOL."""
        if not points and dim is None:
            raise ValueError("empty atom list needs an explicit dim")
        self._dim = int(dim) if dim is not None else len(points[0]) - 1
        index = PointIndex(ATOM_TOL, projective=False)
        wts = []
        for p, w in zip(points, weights):
            i = index.insert(p)
            if i < len(wts):
                wts[i] += w
            else:
                wts.append(w)
        width = len(points[0]) if points else 0
        pts = np.array(index.rows, dtype=float).reshape(len(wts), width)
        wts = np.array(wts, dtype=float)
        pts.flags.writeable = False
        wts.flags.writeable = False
        self._points, self._weights = pts, wts

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

    def _eval_many(self, regions, mc):
        # fsum is exactly rounded, so the value does not depend on atom order
        return Estimates([math.fsum(
            self._weights[_atoms_inside(self._points, region)])
                          for region in regions])

    def _union_mass(self, regions, mc):
        covered = np.zeros(len(self._points), dtype=bool)
        banded = np.zeros(len(self._points), dtype=bool)
        for r in regions:
            dots = self._points @ r.normals.T
            banded |= np.any(_band(dots), axis=1)
            covered |= (np.all(dots > ATOM_TOL, axis=1)
                        | np.all(dots < -ATOM_TOL, axis=1))
        undecided = banded & ~covered
        if undecided.any():
            i = int(np.nonzero(undecided)[0][0])
            # name the nearest plane of the first region the atom lies on
            for r in regions:
                dots = (self._points @ r.normals.T)[i]
                if np.any(_band(dots)):
                    break
            raise BoundaryAtom(
                "atom %s lies on a chart boundary hyperplane and inside no "
                "chart; perturb the configuration" %
                np.array2string(self._points[i], precision=6),
                atom=self._points[i], normal=r.normals[np.abs(dots).argmin()])
        return Estimates([math.fsum(self._weights[covered])])

    def _subspace_mass(self, basis, region):
        in_v = _span_distance(self._points, basis, axis=1) <= ATOM_TOL
        points, weights = self._points[in_v], self._weights[in_v]
        if region is not None:
            weights = weights[_atoms_inside(points, region)]
        return math.fsum(weights)

    def support_subspaces(self):
        # one line per projective atom: the closure of the atoms under no map
        return [p.reshape(1, -1)
                for p in projective_closure(self._points, [], lambda p: p)]

    def __repr__(self):
        return "AtomicMeasure(%d sphere atoms, mass %.6g)" % (
            len(self._points), self.total_mass)


class SubsphereUniform(_UniformMeasure):
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
        self._width = b.shape[0]

    @classmethod
    def from_spanning(cls, rows, dim=None):
        """Build on the span of arbitrary rows: their right singular vectors
        whose singular value exceeds UNIT_TOL."""
        _, sv, vt = np.linalg.svd(np.asarray(rows, dtype=float),
                                  full_matrices=False)
        return cls(vt[sv > UNIT_TOL], dim=dim)

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
                                                      self._width)

    def _exact_value(self, normals):
        return _exact_round_value(self.subsphere_dim, normals)

    def support_subspaces(self):
        return [self._basis]

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

    def _mixed(self, evaluate, mc):
        """sum(c_i * evaluate(lambda_i, mc_i)), each value exactly rounded;
        component i reads the seed derived for it from mc."""
        parts = [evaluate(m, derive_mc(mc, _ROLE_COMPONENT, i))
                 for i, (_, m) in enumerate(self._components)]
        size = len(parts[0])
        return Estimates.stack(parts).mapped(IndexMap(
            size, np.tile(np.arange(size), len(parts)),
            np.arange(size * len(parts)),
            np.repeat([c for c, _ in self._components], size)), fsum=True)

    def _eval_many(self, regions, mc):
        return self._mixed(lambda m, mc: m.eval_many(regions, mc), mc)

    def _union_mass(self, regions, mc):
        return self._mixed(lambda m, mc: m._union_mass(regions, mc), mc)

    def _subspace_mass(self, basis, region):
        return math.fsum(c * m._subspace_mass(basis, region)
                         for c, m in self._components)

    def support_subspaces(self):
        out = []
        for c, m in self._components:
            if c > 0:
                out.extend(m.support_subspaces())
        return out

    def __repr__(self):
        return "Mixture(%d components)" % len(self._components)


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
        self._subspace = (None if subspace is None else
                          SubsphereUniform(subspace, dim=base.dim).basis)

    @property
    def dim(self):
        return self._base.dim

    def _eval_many(self, regions, mc):
        if self._subspace is not None:
            den = self._base._subspace_mass(self._subspace, None)
            if den <= 0.0:
                raise UnsupportedMeasure("restriction subsphere has no mass")
            return Estimates([2.0 * self._base._subspace_mass(
                self._subspace, region) / den for region in regions])
        # d = m(A) + m(-A) is read once per call and shared by every ratio
        a, neg_a = self._region, self._region.antipodal()
        ests = self._base.eval_many(
            [a, neg_a] + [r.intersect(b) for r in regions for b in (a, neg_a)],
            derive_mc(mc, _ROLE_RESTRICT))
        pairs = ests.mapped(IndexMap(
            len(ests) // 2, np.arange(len(ests)) // 2, range(len(ests)), 1))
        values = np.array([est.value for est in pairs])
        den, num = values[0], values[1:]
        if den <= 0.0:
            raise UnsupportedMeasure("restriction region has no mass")
        # the delta method: 2 n / d linearized about the pair's values, 2 / d
        # per unit of n and -2 n / d^2 per unit of d; an exact pair keeps
        # the ratio's bits, as its deviations from its values are 0
        ratio = 2.0 * num / den
        lin = (pairs - values).mapped(IndexMap(
            len(ratio), np.repeat(np.arange(len(ratio)), 2),
            np.column_stack([np.arange(1, len(values)),
                             np.zeros(len(ratio), np.intp)]).ravel(),
            np.column_stack([np.full(len(ratio), 2.0 / den),
                             -ratio / den]).ravel()))
        return Estimates(lin.offset + ratio, lin.rows, lin.cols, lin.coef,
                         lin.sources)

    def support_subspaces(self):
        subs = self._base.support_subspaces()
        if self._subspace is not None:
            return [v for v in subs
                    if _span_distance(v, self._subspace) <= MATCH_TOL]
        # an atom that strict sign tests keep out of A and -A has no mass
        return [v for v in subs if len(v) > 1 or not (
            np.any(v @ self._region.normals.T < -ATOM_TOL)
            and np.any(v @ self._region.normals.T > ATOM_TOL))]

    def _union_mass(self, regions, mc):
        base = self._base
        if not isinstance(base, AtomicMeasure):
            raise UnsupportedMeasure(
                "union_mass of a restricted non-atomic measure")
        if self._subspace is not None:
            den = base._subspace_mass(self._subspace, None)
            in_v = _span_distance(base.points, self._subspace, 1) <= ATOM_TOL
            base = AtomicMeasure.from_sphere_atoms(
                base.points[in_v], base.weights[in_v], dim=self.dim)
        else:
            a, neg_a = self._region, self._region.antipodal()
            den = sum(est.value for est in base.eval_many([a, neg_a]))
            regions = [r.intersect(b) for b in (a, neg_a) for r in regions]
        return Estimates([2.0 * base.union_mass(regions).value / den])

    def __repr__(self):
        what = "region" if self._region is not None else "subsphere"
        return "RestrictedNormalized(%r, %s)" % (self._base, what)


class FiniteOrbitMeasure(AtomicMeasure):
    """Equal weights on a finite projectively-invariant point set.

    A point listed twice, up to sign within 1e-9, counts once.  With m
    distinct projective points the lift carries 2m sphere atoms of weight
    1/m each, so the total mass is 2.
    """

    def __init__(self, orbit_points):
        pts = projective_closure([normalized(p) for p in orbit_points], [],
                                 lambda p: p)
        if not pts:
            raise ValueError("empty orbit")
        self.orbit = tuple(pts)
        super().__init__([(p, 2.0 / len(pts)) for p in pts])

    def __repr__(self):
        return "FiniteOrbitMeasure(%d projective points)" % len(self.orbit)


# ---------------------------------------------------------------------------
# constructions

def average_over_group(base, group):
    """Average an atomic measure over an explicit finite matrix group.

    Realizes the invariant mean of a finite group acting on measures: the
    result has atoms h^{-1}(a) over the distinct listed h (up to sign within
    1e-9) and base atoms a, with weights divided by the group order, and is
    invariant under every listed element.  Raises NotAGroup when one closure
    step, right multiplication by each element, finds a product not listed,
    NonAtomicBase when base is not atomic.
    """
    if not isinstance(base, AtomicMeasure):
        raise NonAtomicBase("group averaging needs an atomic base, got %s"
                            % type(base).__name__)
    elems = projective_closure(group, [], lambda g: scaled_flat(g.matrix))
    if not elems:
        raise NotAGroup("empty group list")
    if any(g.dim != base.dim for g in elems):
        raise DimensionMismatch("group element dimension mismatch")
    mats = [g.matrix for g in elems]
    if len(projective_closure(mats, [lambda m, h=h: m @ h for h in mats],
                              scaled_flat, depth=1)) > len(mats):
        raise NotAGroup("a product of two elements is not in the list")
    scale = 1.0 / len(elems)
    points = [normalized(g.inverse_matrix @ p)
              for g in elems for p in base.points]
    weights = [w * scale for _ in elems for w in base.weights]
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
    seed = normalized(seed_point)
    steps = [lambda p, m=m: normalized(m @ p)
             for g in generators for m in (g.matrix, g.inverse_matrix)]
    points = projective_closure([seed], steps, lambda p: p, limit=max_orbit)
    if len(points) > max_orbit:
        raise OrbitOverflow("orbit exceeded max_orbit=%d points" % max_orbit,
                            size=len(points))
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

    Every region and its images are one eval_many batch.  The difference
    must pass MeasureEstimate.is_zero: within exact_tol for exact measures,
    4 combined standard errors for Monte Carlo ones; distinct regions of a
    sampled batch read independent rotations, so those errors stay exact.
    A BoundaryAtom error propagates with the index of the first region
    whose images raise it attached.
    """
    gens = list(generators)
    images = [[region] + [apply_map(g, region) for g in gens]
              for region in trial_regions]
    mc = derive_mc(mc, _ROLE_INVARIANCE)
    try:
        ests = measure.eval_many([r for row in images for r in row], mc)
    except BoundaryAtom:
        for ridx, row in enumerate(images):
            try:
                measure.eval_many(row, mc)
            except BoundaryAtom as err:
                err.face = ("region", ridx)
                raise err from None
        raise
    pairs = [(ridx, gidx, ridx * (len(gens) + 1))
             for ridx in range(len(images)) for gidx in range(len(gens))]
    diffs = ests.mapped(IndexMap(
        len(pairs), np.arange(2 * len(pairs)) // 2,
        [i for _, gidx, base in pairs for i in (base, base + 1 + gidx)],
        np.tile([1, -1], len(pairs))))
    entries = [InvarianceEntry(ridx, gidx, ests[base].value,
                               ests[base + 1 + gidx].value, diff.std_error,
                               abs(diff.value), diff.is_zero(exact_tol))
               for (ridx, gidx, base), diff in zip(pairs, diffs)]
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
    """spec[key], which must be a non-empty list of JSON objects."""
    items = _required(spec, key, spec["type"])
    if (isinstance(items, list) and items
            and all(isinstance(i, dict) for i in items)):
        return items
    raise SchemaError("%s measure: %r must be a non-empty list of objects, "
                      "got %r" % (spec["type"], key, items))


_SCALARS = {"weight": ("a finite number", is_number),
            "dim": ("an integer", is_integer),
            "max_orbit": ("a positive integer",
                          lambda v: is_integer(v) and v >= 1),
            "monte_carlo": ("a boolean", lambda v: isinstance(v, bool))}


def _spec_scalar(spec, key, kind, default=None):
    """spec[key] (default when absent, required when default is None),
    checked against _SCALARS; anything else is a SchemaError."""
    value = (_required(spec, key, kind) if default is None
             else spec.get(key, default))
    want, valid = _SCALARS[key]
    if not valid(value):
        raise SchemaError("%s measure: %r must be %s, got %r"
                          % (kind, key, want, value))
    return value


def _spec_array(spec, key, kind, shape, empty=False):
    """spec[key] as a float array of the given shape (see numeric_array);
    a ragged, misshapen or (unless empty) empty value is a SchemaError."""
    value = _required(spec, key, kind)
    if empty and value == []:
        return np.empty((0,) + shape[1:])
    a = numeric_array(value, shape)
    if a is None or a.size == 0:
        raise SchemaError("%s measure: %r must be a [%s] array of finite "
                          "numbers, got %r" % (kind, key, ", ".join(
                              str(n or "k") for n in shape), value))
    return a


def _spec_built(key, kind, build, *args, **kwargs):
    """build(*args, **kwargs), its ValueError or SingularMatrix a
    SchemaError naming key."""
    try:
        return build(*args, **kwargs)
    except (ValueError, SingularMatrix) as err:
        raise SchemaError("%s measure: %r is invalid: %s"
                          % (kind, key, err)) from err


def measure_from_spec(spec, dim):
    """Build a measure from its JSON description.

    See README for the field-by-field format of each "type".
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise SchemaError("measure spec must be an object with a 'type' "
                          "field, got %r" % (spec,))
    kind, width = spec["type"], dim + 1
    if _spec_scalar(spec, "dim", kind, dim) != dim:
        raise DimensionMismatch("measure dim %s vs document dim %d"
                                % (spec["dim"], dim))
    if kind == "round":
        return RoundMeasure(dim, monte_carlo=_spec_scalar(
            spec, "monte_carlo", kind, False))
    if kind == "atomic":
        atoms = [(_spec_array(a, "point", kind, (width,)),
                  float(_spec_scalar(a, "weight", kind)))
                 for a in _spec_objects(spec, "atoms")]
        if any(w <= 0.0 for _, w in atoms):
            raise SchemaError("atomic measure: every 'weight' must be "
                              "positive, got %r" % [w for _, w in atoms])
        measure = _spec_built("point", kind, AtomicMeasure, atoms, dim=dim)
        if abs(measure.total_mass - 2.0) > MATCH_TOL:
            raise SchemaError("atomic measure: the weights of its 'atoms' "
                              "must sum to 2, got %r" % [w for _, w in atoms])
        return measure
    if kind == "subsphere":
        return _spec_built("basis", kind, SubsphereUniform, _spec_array(
            spec, "basis", kind, (None, width)), dim=dim)
    if kind == "mixture":
        comps = [(float(_spec_scalar(c, "weight", kind)),
                  measure_from_spec(_required(c, "measure", kind), dim))
                 for c in _spec_objects(spec, "components")]
        weights = [c for c, _ in comps]
        if min(weights) < 0.0 or abs(math.fsum(weights) - 1.0) > MATCH_TOL:
            raise SchemaError("mixture measure: the 'weight' of each of its "
                              "'components' must be nonnegative, and the "
                              "weights must sum to 1, got %r" % weights)
        return Mixture(comps)
    if kind == "restricted":
        base = measure_from_spec(_required(spec, "base", kind), dim)
        if "region" in spec:
            normals = _spec_array(spec, "region", kind, (None, width), True)
            return RestrictedNormalized(base, region=Region(normals, dim))
        return _spec_built("subspace", kind, RestrictedNormalized, base,
                           subspace=_spec_array(spec, "subspace", kind,
                                                (None, width)))
    if kind == "orbit":
        gens = _spec_array(spec, "generators", kind, (None, width, width),
                           True)
        seed = _spec_array(spec, "seed_point", kind, (width,))
        maps = _spec_built("generators", kind, list, map(ProjectiveMap, gens))
        return _spec_built("seed_point", kind, finite_orbit_measure, seed,
                           maps, _spec_scalar(spec, "max_orbit", kind, 10000))
    raise SchemaError("unknown measure type %r" % (kind,))

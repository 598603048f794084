"""Measure-theoretic angles of spherical simplices and the alternating
angle sum they satisfy.

The angle at the face cut out by planes T of a simplex s is half the
measure of the region where all those planes are positive; the empty cut
set gives half the total mass.  For an antipodally invariant measure the
signed sum of all face angles ties back to the mass of the simplex itself:
twice the sum is (1 + (-1)^n) times the simplex mass, so the sum vanishes
in odd dimension and equals the simplex mass in even dimension.
"""

import math
from itertools import combinations

from .errors import DimensionTooLarge
from .geom import face_region
from .measure import Estimates, IndexMap, MeasureEstimate, derive_mc

_ROLE_CUTSET = 10
_ROLE_SIMPLEX = 11
# the widest angle table: exact measures, mixtures and restrictions evaluate
# all 2^(n+1) cut-set regions of an n-simplex; under a 50/50 mixture of two
# sampled round measures at 10000 samples, sgb takes 0.15, 0.58, 2.74 and
# 6.15 s at n = 8, 10, 12 and 13 (2-core box, 94 MB peak)
MAX_DIM = 13


def _cut_mask(cut):
    return sum(1 << i for i in set(cut))


def cut_sets(n, max_size=None):
    """All plane cut sets of an n-simplex, optionally capped in size."""
    top = n + 1 if max_size is None else max_size
    for size in range(top + 1):
        yield from combinations(range(n + 1), size)


def check_dimension(n):
    """Raise DimensionTooLarge when an n-simplex is wider than MAX_DIM."""
    if n > MAX_DIM:
        raise DimensionTooLarge(
            "the angle table of a %d-simplex has 2^%d cut-set regions; "
            "simplex dimensions up to %d are supported" % (n, n + 1, MAX_DIM))


def angle(simplex, cut_set, measure, mc=None):
    """Half the measure of the region cut out by the planes in cut_set."""
    cut = tuple(sorted(int(i) for i in cut_set))
    region = face_region(simplex, cut)
    mass = measure.eval(region, derive_mc(mc, _ROLE_CUTSET, _cut_mask(cut)))
    return MeasureEstimate(0.5 * mass.value, 0.5 * mass.std_error,
                           mass.samples)


def angle_estimates(simplices, measure, mc=None, masses=None):
    """The angles of simplices of one dimension n as one batch of
    Estimates: simplex after simplex, each its 2^(n+1) cut sets in
    cut_sets order.

    The full cut sets, whose angles are the halved simplex masses, come
    first, from one measure.eval_many call (masses, when given), so a
    sampled measure draws once for all simplices.  When a simplex's
    full-cut estimate reads every sign code of its n+1 planes, every other
    cut set is a superset share of the same histogram, so the entries
    share its samples; the empty cut set is the exact angle 1.  The cut
    sets of every other simplex go to a second eval_many call, all of them
    at once, with a seed derived from mc.  A simplex wider than MAX_DIM
    raises DimensionTooLarge before anything is evaluated.
    """
    n = simplices[0].dim if len(simplices) else 0
    if any(s.dim != n for s in simplices):
        raise ValueError("angle tables need simplices of one dimension")
    check_dimension(n)
    cuts = list(cut_sets(n))
    if masses is None:
        masses = measure.eval_many([face_region(s, cuts[-1])
                                    for s in simplices], mc)
    size = len(cuts)
    read = [i for i, h in enumerate(masses.histograms)
            if h is not None and len(h) == size]
    pending = sorted(set(range(len(simplices))) - set(read))
    rest = (measure.eval_many([face_region(simplices[i], cut)
                               for i in pending for cut in cuts[:-1]],
                              derive_mc(mc, _ROLE_SIMPLEX))
            if pending else Estimates([]))
    shares = masses.shares(read, [_cut_mask(cut) for cut in cuts[1:]])
    one = len(simplices)    # the stack: the masses, 1, the shares, the rest
    terms = ([(i * size, one, 1.0) for i in read]
             + [(i * size + j, one + u * (size - 1) + j, 1.0)
                for u, i in enumerate(read) for j in range(1, size)]
             + [(i * size + j, one + 1 + len(shares) + q * (size - 1) + j, 0.5)
                for q, i in enumerate(pending) for j in range(size - 1)]
             + [(i * size + size - 1, i, 0.5) for i in pending])
    return Estimates.stack([masses, Estimates([1.0]), shares, rest]).mapped(
        IndexMap(one * size, *(zip(*terms) if terms else [()] * 3)))


def k_map(n, tops, stride):
    """The IndexMap of k, top after top, from tables of stride angles per
    top in cut_sets order: (-1)^(n - |T|) times the angle of each cut set
    T of size at most n, in cut-set order."""
    cuts = list(cut_sets(n, n))
    return IndexMap(tops, [t for t in range(tops) for _ in cuts],
                    [t * stride + i for t in range(tops)
                     for i in range(len(cuts))],
                    [(-1) ** (n - len(cut)) for cut in cuts] * tops)


def k_and_mass(simplex, measure, mc=None):
    """k(s) (see k_value) and the mass of s as one batch of two Estimates.

    Summed over the cut sets T of at most n planes within a sign code,
    (-1)^(n - |T|) is 1 at the code of s, (-1)^n at that of -s and 0 at
    any other, so a sampled full cut with n > 0 gives k from the first and
    last bins of its histogram (measure._region_histograms).  Any other
    measure, and S^0, whose k is the exact 1, reads the angle table, given
    the full cut's estimate, exactly rounded.  A simplex wider than
    MAX_DIM raises DimensionTooLarge before anything is evaluated.
    """
    n = simplex.dim
    check_dimension(n)
    full = measure.eval_many([face_region(simplex, range(n + 1))], mc)
    hist = full.histograms[0]
    if hist is not None and n > 0:
        last = len(hist) - 1
        return Estimates([0.0, 0.0], [0, 0, 1], [0, last, last],
                         [(-1.0) ** n, 1.0, 2.0], [hist])
    table = angle_estimates([simplex], measure, mc, masses=full)
    k = k_map(n, 1, len(table))
    return table.mapped(IndexMap(2, [*k.out, 1], [*k.into, len(table) - 1],
                                 [*k.scale, 2.0]), fsum=True)


def k_value(simplex, measure, mc=None, pair=None):
    """Signed sum of all face angles: sum over faces of (-1)^r * angle.

    A face of dimension r corresponds to a cut set of size n - r; all cut
    sets of size at most n contribute, including the simplex itself (empty
    cut set, angle = half the total mass).  Exactly 0 in odd dimension and
    the simplex mass in even dimension for antipodally invariant measures.
    Read from pair, the simplex's k_and_mass batch for (measure, mc),
    which is evaluated when not given.
    """
    return (pair or k_and_mass(simplex, measure, mc))[0]


def sgb_residual(simplex, measure, mc=None, pair=None):
    """Residual of the spherical angle-sum identity.

    2 * k(s) - (1 + (-1)^n) * mass(s), exactly rounded; zero exactly for
    exact measures and within statistical error for Monte Carlo ones.  k
    and the mass are read from pair, as in k_value, so a sampled
    histogram's shared readings cancel exactly.
    """
    even = 1.0 + (-1.0) ** simplex.dim
    pair = pair or k_and_mass(simplex, measure, mc)
    return pair.mapped(IndexMap(1, [0, 0], [0, 1], [2.0, -even]), fsum=True)[0]


def antipodal_inclusion_exclusion(simplex, measure, mc=None):
    """Mass of the antipodal simplex two ways: direct and alternating sum.

    Expanding the product of complementary indicators gives
    mass(-s) = sum over all cut sets T of (-1)^{|T|} * mass(region(T));
    returns (direct, expanded) for exact-measure identity tests.
    """
    n = simplex.dim
    direct = measure.eval(simplex.region().antipodal(),
                          derive_mc(mc, _ROLE_CUTSET, 1 << (n + 2)))
    table = angle_estimates([simplex], measure, mc)
    expanded = math.fsum(((-1.0) ** len(cut)) * 2.0 * est.value
                         for cut, est in zip(cut_sets(n), table))
    return direct.value, expanded

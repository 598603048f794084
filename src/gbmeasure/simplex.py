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
from dataclasses import dataclass
from itertools import combinations

from .geom import face_region
from .measure import (MeasureEstimate, SignHistogram, combine_estimates,
                      derive_mc, region_histogram)
from ._util import ordered_map

_ROLE_CUTSET = 10


@dataclass(frozen=True)
class AngleValue:
    """An angle at a face, identified by the cut set of bounding planes."""
    cut_set: tuple
    estimate: MeasureEstimate

    @property
    def value(self):
        return self.estimate.value


def _cut_mask(cut):
    mask = 0
    for i in cut:
        mask |= 1 << i
    return mask


def cut_sets(n, max_size=None):
    """All plane cut sets of an n-simplex, optionally capped in size."""
    top = n + 1 if max_size is None else max_size
    for size in range(top + 1):
        yield from combinations(range(n + 1), size)


def angle(simplex, cut_set, measure, mc=None):
    """Half the measure of the region cut out by the planes in cut_set."""
    cut = tuple(sorted(int(i) for i in cut_set))
    region = face_region(simplex, cut)
    est = measure.eval(region, derive_mc(mc, _ROLE_CUTSET, _cut_mask(cut)))
    return AngleValue(cut, est.scaled(0.5))


def angles_by_cut_set(simplex, measure, mc=None, include_full=True):
    """Angles for every cut set, keyed by cut set in cut_sets order.

    The full cut set, whose angle is the halved simplex mass, is evaluated
    first.  When that estimate is a Monte Carlo reading of a sign-code
    histogram against the n+1 planes, every other cut set is a superset sum
    over the same histogram, so the entries share samples (and say so in
    their parts); the empty cut set is the exact angle 1.  Otherwise each
    cut set is evaluated on its own with a seed derived from its planes.
    """
    n = simplex.dim
    full = angle(simplex, range(n + 1), measure, mc)
    hist = region_histogram(2 * full.estimate)  # the simplex mass
    if hist is not None and hist.bits == n + 1:
        table = {cut: AngleValue(cut, hist.mass(_cut_mask(cut)).scaled(0.5)
                                 if cut else MeasureEstimate(1.0))
                 for cut in cut_sets(n, n)}
    else:
        table = {a.cut_set: a for a in ordered_map(
            lambda c: angle(simplex, c, measure, mc), cut_sets(n, n))}
    if include_full:
        table[full.cut_set] = full
    return table


def k_value(simplex, measure, mc=None):
    """Signed sum of all face angles: sum over faces of (-1)^r * angle.

    A face of dimension r corresponds to a cut set of size n - r; all cut
    sets of size at most n contribute, including the simplex itself (empty
    cut set, angle = half the total mass).  Exactly 0 in odd dimension and
    the simplex mass in even dimension for antipodally invariant measures.
    """
    n = simplex.dim
    table = angles_by_cut_set(simplex, measure, mc, include_full=False)
    return combine_estimates([(-1.0 if (n - len(cut)) % 2 else 1.0,
                               table[cut].estimate)
                              for cut in cut_sets(n, n)])


def sgb_residual(simplex, measure, mc=None, k=None):
    """Residual of the spherical angle-sum identity.

    2 * k(s) - (1 + (-1)^n) * mass(s); zero exactly for exact measures and
    within statistical error for Monte Carlo ones.  Pass the k_value of the
    same (simplex, measure, mc) as k: a k read from one sign-code histogram
    gives the simplex mass from that histogram without evaluating anything,
    and otherwise only the full cut set is evaluated, with the same seed.
    """
    n = simplex.dim
    if k is None:
        k = k_value(simplex, measure, mc)
    hist = k.parts[0][0] if len(k.parts) == 1 else None
    if isinstance(hist, SignHistogram) and hist.bits == n + 1:
        simplex_mass = hist.mass((1 << (n + 1)) - 1)
    else:
        simplex_mass = angle(simplex, range(n + 1), measure,
                             mc).estimate.scaled(2.0)  # un-halve the angle
    even_factor = 1.0 + (-1.0) ** n
    return combine_estimates([(2.0, k), (-even_factor, simplex_mass)])


def antipodal_inclusion_exclusion(simplex, measure, mc=None):
    """Mass of the antipodal simplex two ways: direct and alternating sum.

    Expanding the product of complementary indicators gives
    mass(-s) = sum over all cut sets T of (-1)^{|T|} * mass(region(T));
    returns (direct, expanded) for exact-measure identity tests.
    """
    n = simplex.dim
    direct = measure.eval(simplex.region().antipodal(),
                          derive_mc(mc, _ROLE_CUTSET, 1 << (n + 2)))
    table = angles_by_cut_set(simplex, measure, mc, include_full=True)
    expanded = math.fsum(
        ((-1.0) ** len(cut)) * 2.0 * table[tuple(cut)].value
        for cut in cut_sets(n))
    return direct.value, expanded

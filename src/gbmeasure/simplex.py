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

from .geom import face_region
from .measure import (MeasureEstimate, combine_estimates, derive_mc,
                      region_histogram)

_ROLE_CUTSET = 10
_ROLE_SIMPLEX = 11


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
    return measure.eval(region, derive_mc(mc, _ROLE_CUTSET,
                                          _cut_mask(cut))).scaled(0.5)


def angles_by_cut_set(simplices, measure, mc=None):
    """Angles of several simplices: one dict per simplex, keyed by cut set
    in cut_sets order, each angle a halved MeasureEstimate.

    The full cut sets, whose angles are the halved simplex masses, come
    first, from one measure.eval_many call, so a sampled measure draws once
    for all simplices.  When a simplex's full-cut estimate is a Monte Carlo
    reading of a sign-code histogram against its n+1 planes, every other
    cut set is a superset sum over the same histogram, so the entries share
    samples (and say so in their parts); the empty cut set is the exact
    angle 1.  The cut sets of every other simplex go to a second
    eval_many call, all of them at once, with a seed derived from mc.
    """
    simplices = list(simplices)
    masses = measure.eval_many([face_region(s, tuple(range(s.dim + 1)))
                                for s in simplices], mc)
    tables, pending = [], []
    for i, (simplex, mass) in enumerate(zip(simplices, masses)):
        n = simplex.dim
        hist = region_histogram(mass)
        if hist is not None and hist.bits == n + 1:
            tables.append({cut: hist.mass(_cut_mask(cut)).scaled(0.5) if cut
                           else MeasureEstimate(1.0)
                           for cut in cut_sets(n, n)})
        else:
            tables.append({})
            pending += [(i, cut) for cut in cut_sets(n, n)]
    if pending:
        ests = measure.eval_many([face_region(simplices[i], cut)
                                  for i, cut in pending],
                                 derive_mc(mc, _ROLE_SIMPLEX))
        for (i, cut), est in zip(pending, ests):
            tables[i][cut] = est.scaled(0.5)
    for simplex, mass, table in zip(simplices, masses, tables):
        table[tuple(range(simplex.dim + 1))] = mass.scaled(0.5)
    return tables


def k_value(simplex, measure, mc=None, table=None):
    """Signed sum of all face angles: sum over faces of (-1)^r * angle.

    A face of dimension r corresponds to a cut set of size n - r; all cut
    sets of size at most n contribute, including the simplex itself (empty
    cut set, angle = half the total mass).  Exactly 0 in odd dimension and
    the simplex mass in even dimension for antipodally invariant measures.
    The angles are read from table, the simplex's angles_by_cut_set table
    for (measure, mc), which is evaluated when not given.
    """
    n = simplex.dim
    if table is None:
        table = angles_by_cut_set([simplex], measure, mc)[0]
    return combine_estimates([(-1.0 if (n - len(cut)) % 2 else 1.0,
                               table[cut])
                              for cut in cut_sets(n, n)])


def sgb_residual(simplex, measure, mc=None, table=None, k=None):
    """Residual of the spherical angle-sum identity.

    2 * k(s) - (1 + (-1)^n) * mass(s); zero exactly for exact measures and
    within statistical error for Monte Carlo ones.  k and the simplex mass,
    twice the full cut set's angle, are both read from table, as in
    k_value, so a sampled table's shared histogram cancels exactly; k, when
    given, is k_value of that same table, and is summed from it otherwise.
    """
    n = simplex.dim
    if table is None:
        table = angles_by_cut_set([simplex], measure, mc)[0]
    if k is None:
        k = k_value(simplex, measure, mc, table)
    simplex_mass = table[tuple(range(n + 1))].scaled(2.0)
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
    table = angles_by_cut_set([simplex], measure, mc)[0]
    expanded = math.fsum(
        ((-1.0) ** len(cut)) * 2.0 * table[tuple(cut)].value
        for cut in cut_sets(n))
    return direct.value, expanded

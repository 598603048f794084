"""Acceptance suite: one test per criterion, one printed verdict line each.

Run as `pytest tests/test_acceptance.py` (the verdict lines bypass capture)
or `pytest -s` to interleave them with pytest's own output.
"""

import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np

from conftest import record_verdict

from gbmeasure import (AtomicMeasure, MCConfig, RoundMeasure,
                       average_over_group, check_invariance, defect_sums,
                       dichotomy_check, gb_report, k_value, load,
                       random_region, random_simplex, sgb_residual,
                       simplex_from_vertices, transversality_check)
from gbmeasure.documents import builtin_document, icosahedral_rotation_group
from gbmeasure.pullback import (AdaptedCovering, CircleAtomicMeasure,
                                PowerMap, covering_independence,
                                default_covering, equivariance_check,
                                induce_quotient, pullback)
from gbmeasure.triangulation import Incidence

TWO_PI = 2 * math.pi


def report(number, description, ok):
    line = "ACCEPTANCE %02d %-52s %s" % (number, description,
                                         "PASS" if ok else "FAIL")
    record_verdict(line)
    assert ok, line


def test_01_spherical_gb_octant_exact():
    start = time.perf_counter()
    octant = simplex_from_vertices(np.eye(3))
    measure = RoundMeasure(2)
    k = k_value(octant, measure)
    mass = measure.eval(octant.region())
    residual = sgb_residual(octant, measure)
    elapsed = time.perf_counter() - start
    ok = (abs(k.value - 0.25) < 1e-12 and abs(mass.value - 0.25) < 1e-12
          and abs(residual.value) < 1e-12 and elapsed < 1.0)
    report(1, "octant: k = mass = 0.25, residual < 1e-12, < 1 s", ok)


def test_02_odd_dimension_vanishing():
    rng = np.random.default_rng(202)
    ok = True
    for trial in range(100):
        arc = random_simplex(1, rng)
        ok = ok and k_value(arc, RoundMeasure(1)).value == 0.0
        atoms = AtomicMeasure(
            [(rng.standard_normal(2), w)
             for w in rng.uniform(0.1, 1.0, size=int(rng.integers(1, 5)))])
        ok = ok and k_value(arc, atoms).value == 0.0
    report(2, "100 random arcs: k = 0 exactly (round and atomic)", ok)


def test_03_chi_equals_mu_sphere_double_cover():
    start = time.perf_counter()
    tri = load(builtin_document("s2-octahedron"))
    exact = gb_report(tri, RoundMeasure(2))
    ok = (exact.chi_comb == 2 and abs(exact.mu_total.value - 2.0) < 1e-9
          and exact.passed)
    mc = gb_report(tri, RoundMeasure(2, monte_carlo=True),
                   MCConfig(seed=303, samples=1_000_000))
    ok = ok and abs(2.0 - mc.mu_total.value) <= 4 * mc.mu_total.std_error
    ok = ok and mc.passed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(3, "s2-octahedron: chi = mu = 2 (exact and 1e6-sample MC)", ok)


def test_04_chi_equals_mu_projective_plane():
    tri = load(builtin_document("rp2-icosahedral"))
    rep = gb_report(tri, RoundMeasure(2))
    ok = rep.chi_comb == 1 and abs(rep.chi_mu_residual) < 1e-9
    # Girard oracle: each developed triangle carries 2*(4 pi / 20)/(4 pi)
    ok = ok and all(abs(k.value - 0.1) < 1e-12 for k in rep.simplex_sums)
    ok = ok and rep.passed
    report(4, "rp2-icosahedral: chi = mu = 1, triangle mass 1/10", ok)


def test_05_chi_equals_mu_torus_at_infinity():
    ok = True
    for k in (2, 3, 4):
        tri = load(builtin_document("t2-grid", k=k))
        measure = tri.default_measure()
        rep = gb_report(tri, measure)
        ok = ok and rep.chi_comb == 0 and rep.mu_total.value == 0.0
        ok = ok and rep.link_verdict.passed and rep.link_verdict.worst <= 1e-9
        ok = ok and transversality_check(tri, measure).passed
    report(5, "t2-grid(2,3,4): chi = mu = 0, links 1, transversal", ok)


def test_06_rearrangement_identity_rational():
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(100):
        n_v = int(rng.integers(3, 10))
        n_e = int(rng.integers(3, 20))
        n_t = int(rng.integers(1, 51))
        faces = [tuple((v,) for v in range(n_v)),
                 tuple(tuple(int(x) for x in rng.integers(0, n_v, size=2))
                       for _ in range(n_e)),
                 tuple(tuple(int(x) for x in rng.integers(0, n_v, size=3))
                       for _ in range(n_t))]
        incidences = []
        table = {}
        for t in range(n_t):
            incidences.append(Incidence(t, (), 2, t, (0, 1, 2)))
            for size in (1, 2):
                for cut in combinations(range(3), size):
                    incidences.append(Incidence(
                        t, cut, 2 - size,
                        int(rng.integers(0, len(faces[2 - size]))), ()))
            for s in range(4):
                for cut in combinations(range(3), s):
                    table[(t, cut)] = Fraction(int(rng.integers(-99, 100)),
                                               int(rng.integers(1, 100)))
        _, _, _, _, residual = defect_sums(faces, incidences,
                                           lambda t, c: table[(t, c)],
                                           one=Fraction(1))
        ok = ok and residual == 0
    report(6, "100 random rational Delta-complexes: residual = 0", ok)


def test_07_averaging_invariance():
    group = icosahedral_rotation_group()
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(20):
        base = AtomicMeasure(
            [(rng.standard_normal(3), w)
             for w in rng.uniform(0.2, 1.0, size=int(rng.integers(1, 4)))])
        averaged = average_over_group(base, group)
        regions = [random_region(2, rng, int(rng.integers(1, 4)))
                   for _ in range(50)]
        rep = check_invariance(averaged, group[:3], regions)
        ok = ok and rep.passed and rep.max_discrepancy == 0.0
    report(7, "20 averaged atomic measures: exact invariance on 50 regions",
           ok)


def test_08_finite_orbit_dichotomy():
    tri = load(builtin_document("t2-grid", k=2))
    dirac = AtomicMeasure.dirac(np.array([2.0, 1.0, 0.0]))
    rep = dichotomy_check(tri, dirac, word_length=2)
    ok = rep.chi == 0 and rep.chart_mass.value == 0.0 and rep.consistent

    tri = load(builtin_document("rp2-icosahedral"))
    rep = dichotomy_check(tri, RoundMeasure(2),
                          mc=MCConfig(seed=808, samples=200_000))
    ok = ok and rep.chi == 1 and rep.consistent
    ok = ok and abs(rep.chart_mass.value - 1.0) <= max(
        4 * rep.chart_mass.std_error, 1e-12)
    report(8, "dichotomy: torus fixed point (chi=0), rp2 mass 1 (chi=1)", ok)


def _random_adapted_covering(rng, degree):
    cap = TWO_PI / abs(degree)
    while True:
        count = int(rng.integers(3 * abs(degree), 5 * abs(degree) + 3))
        starts = np.sort(rng.uniform(0, TWO_PI, size=count))
        gaps = np.diff(np.concatenate([starts, [starts[0] + TWO_PI]]))
        if gaps.max() >= 0.8 * cap:
            continue
        lengths = gaps + rng.uniform(0.05, 0.95, size=count) * (cap - gaps)
        return AdaptedCovering(list(zip(starts, lengths)))


def test_09_pullback_suite():
    rng = np.random.default_rng(909)
    f = PowerMap(3)
    ok = True
    for _ in range(50):
        lam = CircleAtomicMeasure(
            [(rng.uniform(0, TWO_PI), w)
             for w in rng.uniform(0.1, 2.0, size=int(rng.integers(1, 4)))])
        rep = covering_independence(f, lam, _random_adapted_covering(rng, 3),
                                    _random_adapted_covering(rng, 3))
        ok = ok and rep.passed
    lam = CircleAtomicMeasure([(0.4, 1.0), (2.2, 0.5)])
    ok = ok and equivariance_check(f, lam).passed
    up = pullback(f, lam, default_covering(f))
    back = pullback(f, induce_quotient(f, up), default_covering(f))
    ok = ok and back.same_as(up)
    report(9, "degree-3 pull-back: independence x50, deck, round trip", ok)


def test_10_monte_carlo_calibration():
    from gbmeasure import Region
    measure = RoundMeasure(2, monte_carlo=True)
    hemisphere = Region([[0.0, 0.0, 1.0]], 2)
    estimates = [measure.eval(hemisphere, MCConfig(seed=s, samples=100_000))
                 for s in range(100)]
    ok = all(abs(e.value - 1.0) <= 4 * e.std_error for e in estimates)
    scatter = float(np.std([e.value for e in estimates], ddof=1))
    reported = float(np.mean([e.std_error for e in estimates]))
    ok = ok and (reported / 2 <= scatter <= reported * 2)
    report(10, "hemisphere MC: 100 seeds within 4 sigma, sigma calibrated",
           ok)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbmeasure import (AdaptedCovering, AtomOnBoundary, CircleAtomicMeasure,
                       DuplicateAtom, NotAdapted, NotDeckInvariant, PowerMap,
                       covering_independence, equivariance_check,
                       induce_quotient, pullback)
from gbmeasure.pullback import circle_distance, default_covering

TWO_PI = 2 * math.pi


def random_adapted_covering(rng, degree):
    """Random overlapping arcs, each short enough to stay injective."""
    k = abs(degree)
    cap = TWO_PI / k
    while True:
        count = int(rng.integers(3 * k, 5 * k + 3))
        starts = np.sort(rng.uniform(0, TWO_PI, size=count))
        gaps = np.diff(np.concatenate([starts, [starts[0] + TWO_PI]]))
        if gaps.max() >= 0.8 * cap:
            continue
        lengths = gaps + rng.uniform(0.05, 0.95, size=count) * (cap - gaps)
        return AdaptedCovering(list(zip(starts, lengths)))


class TestAdaptedCovering:
    def test_gap_rejected(self):
        with pytest.raises(NotAdapted):
            AdaptedCovering([(0.0, math.pi), (math.pi, math.pi)])

    def test_two_overlapping_arcs_cover(self):
        AdaptedCovering([(0.0, 4.0), (3.5, 3.3)])

    def test_arc_too_long_for_map(self):
        cov = AdaptedCovering([(0.0, 4.0), (3.5, 3.3)])
        with pytest.raises(NotAdapted):
            cov.check_adapted(PowerMap(3))

    def test_piece_lookup_uses_list_order(self):
        cov = AdaptedCovering([(0.0, 4.0), (3.5, 3.3)])
        assert cov.piece_of(1.0) == 0
        assert cov.piece_of(4.5) == 1


class TestPullback:
    def test_degree_three_dirac(self):
        f = PowerMap(3)
        lam = CircleAtomicMeasure([(0.0, 1.0)])
        up = pullback(f, lam, default_covering(f))
        angles = sorted(a for a, _ in up.atoms)
        assert np.allclose(angles, [0.0, TWO_PI / 3, 2 * TWO_PI / 3],
                           atol=1e-12)
        assert all(w == 1.0 for _, w in up.atoms)
        assert up.total_mass == 3.0

    def test_identity_map_fixes_measure(self):
        f = PowerMap(1)
        lam = CircleAtomicMeasure([(0.3, 0.5), (2.0, 1.5)])
        up = pullback(f, lam, default_covering(f))
        assert up.same_as(lam)

    def test_degree_two_four_atoms(self):
        f = PowerMap(2)
        lam = CircleAtomicMeasure([(j * math.pi / 2, 0.25)
                                   for j in range(4)])
        up = pullback(f, lam, default_covering(f))
        assert len(up.atoms) == 8
        assert abs(up.total_mass - 2.0) < 1e-15

    def test_total_mass_scales_with_degree(self):
        rng = np.random.default_rng(0)
        for k in (2, 3, -2, 5):
            f = PowerMap(k)
            lam = CircleAtomicMeasure([(rng.uniform(0, TWO_PI), w)
                                       for w in rng.uniform(0.1, 1, size=3)])
            up = pullback(f, lam, random_adapted_covering(rng, k))
            assert abs(up.total_mass - abs(k) * lam.total_mass) < 1e-12

    def test_atom_on_arc_endpoint(self):
        f = PowerMap(1)
        lam = CircleAtomicMeasure([(1.0, 1.0)])
        cov = AdaptedCovering([(1.0, 4.0), (4.5, 3.3)])
        with pytest.raises(AtomOnBoundary):
            pullback(f, lam, cov)

    def test_composition_coherence(self):
        rng = np.random.default_rng(1)
        lam = CircleAtomicMeasure([(rng.uniform(0, TWO_PI), 1.0)])
        fa, fb, fab = PowerMap(2), PowerMap(3), PowerMap(6)
        two_step = pullback(fb, pullback(fa, lam,
                                         random_adapted_covering(rng, 2)),
                            random_adapted_covering(rng, 3))
        one_step = pullback(fab, lam, random_adapted_covering(rng, 6))
        assert two_step.same_as(one_step)


class TestIndependence:
    def test_random_covering_pairs(self):
        rng = np.random.default_rng(2)
        f = PowerMap(3)
        for _ in range(10):
            lam = CircleAtomicMeasure(
                [(rng.uniform(0, TWO_PI), w)
                 for w in rng.uniform(0.1, 2.0, size=int(rng.integers(1, 4)))])
            rep = covering_independence(f, lam,
                                        random_adapted_covering(rng, 3),
                                        random_adapted_covering(rng, 3))
            assert rep.passed

    def test_non_adapted_is_an_error_not_a_mismatch(self):
        f = PowerMap(3)
        lam = CircleAtomicMeasure([(0.5, 1.0)])
        good = default_covering(f)
        bad = AdaptedCovering([(0.0, 4.0), (3.5, 3.3)])  # arcs too long
        with pytest.raises(NotAdapted):
            covering_independence(f, lam, good, bad)


class TestEquivariance:
    def test_degree_three(self):
        f = PowerMap(3)
        rep = equivariance_check(f, CircleAtomicMeasure([(0.0, 1.0)]))
        assert rep.passed

    def test_degree_one_vacuous(self):
        rep = equivariance_check(PowerMap(1),
                                 CircleAtomicMeasure([(1.0, 1.0)]))
        assert rep.passed

    def test_degree_two_pair(self):
        lam = CircleAtomicMeasure([(0.4, 1.0), (2.0, 0.5)])
        rep = equivariance_check(PowerMap(2), lam)
        assert rep.passed


class TestQuotient:
    def test_round_trip_degree_three(self):
        p = PowerMap(3)
        lam_up = CircleAtomicMeasure([(j * TWO_PI / 3, 1.0)
                                      for j in range(3)])
        mu = induce_quotient(p, lam_up)
        assert len(mu.atoms) == 1
        assert mu.atoms[0][1] == 1.0
        back = pullback(p, mu, default_covering(p))
        assert back.same_as(lam_up)

    def test_identity_degree(self):
        lam = CircleAtomicMeasure([(0.7, 0.3)])
        assert induce_quotient(PowerMap(1), lam).same_as(lam)

    def test_round_trip_across_the_seam(self):
        # atoms within 0.01 of 0 on both sides of 2 pi, so deck orbits and
        # matches cross the seam
        p = PowerMap(3)
        lam = CircleAtomicMeasure([(0.005, 1.0), (TWO_PI - 0.007, 0.5)])
        up = pullback(p, lam, default_covering(p))
        assert equivariance_check(p, lam).passed
        assert induce_quotient(p, up).same_as(lam)

    def test_not_deck_invariant(self):
        with pytest.raises(NotDeckInvariant):
            induce_quotient(PowerMap(2),
                            CircleAtomicMeasure([(0.4, 1.0), (1.0, 1.0)]))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-5, max_value=5).filter(lambda k: k != 0),
       st.integers(0, 2**32 - 1))
def test_pullback_properties(degree, seed):
    # mass scales by |degree| and the result is covering-independent
    rng = np.random.default_rng(seed)
    f = PowerMap(degree)
    lam = CircleAtomicMeasure(
        [(rng.uniform(0, TWO_PI), w)
         for w in rng.uniform(0.1, 2.0, size=int(rng.integers(1, 4)))])
    up = pullback(f, lam, random_adapted_covering(rng, degree))
    assert abs(up.total_mass - abs(degree) * lam.total_mass) < 1e-12
    again = pullback(f, lam, random_adapted_covering(rng, degree))
    assert up.same_as(again)
    assert equivariance_check(f, lam,
                              random_adapted_covering(rng, degree)).passed


class TestCircleAtomicMeasure:
    def test_duplicate_atoms_rejected(self):
        with pytest.raises(DuplicateAtom):
            CircleAtomicMeasure([(1.0, 0.5), (1.0 + 1e-14, 0.5)])

    def test_wraparound_duplicate(self):
        with pytest.raises(DuplicateAtom):
            CircleAtomicMeasure([(1e-14, 1.0), (TWO_PI - 1e-14, 1.0)])

    def test_same_as_matches_across_the_seam(self):
        near_zero = CircleAtomicMeasure([(1e-13, 1.0), (2.0, 0.5)])
        assert near_zero.same_as(CircleAtomicMeasure([(TWO_PI - 1e-13, 1.0),
                                                      (2.0, 0.5)]))
        assert not near_zero.same_as(CircleAtomicMeasure([(0.0, 0.5),
                                                          (2.0, 1.0)]))

    def test_circle_distance(self):
        assert circle_distance(0.1, TWO_PI - 0.1) == pytest.approx(0.2)

import numpy as np

from gbmeasure import (AtomicMeasure, MCConfig, ProjectiveMap, RoundMeasure,
                       angle, angles_by_cut_set, apply_map, k_value,
                       random_simplex, sgb_residual, simplex_from_vertices)
from gbmeasure.simplex import antipodal_inclusion_exclusion, cut_sets


def octant():
    return simplex_from_vertices(np.eye(3))


def rotation_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    return ProjectiveMap([[c, -s, 0], [s, c, 0], [0, 0, 1]])


class TestAngle:
    def test_octant_vertex_angle(self):
        a = angle(octant(), (0, 1), RoundMeasure(2))
        assert abs(a.value - 0.25) < 1e-15

    def test_octant_edge_angle(self):
        a = angle(octant(), (0,), RoundMeasure(2))
        assert a.value == 0.5

    def test_empty_cut_is_one(self):
        rng = np.random.default_rng(1)
        s = random_simplex(2, rng)
        for m in (RoundMeasure(2), AtomicMeasure.dirac([0.2, 0.3, 0.95])):
            try:
                a = angle(s, (), m)
            except Exception:
                continue
            assert a.value == 1.0

    def test_monotone_in_cut_set(self):
        rng = np.random.default_rng(2)
        s = random_simplex(2, rng)
        m = RoundMeasure(2)
        table = angles_by_cut_set(s, m)
        for cut in cut_sets(2):
            for bigger in cut_sets(2):
                if set(cut) <= set(bigger):
                    assert table[bigger].value <= table[cut].value + 1e-12


class TestKValue:
    def test_octant_round(self):
        k = k_value(octant(), RoundMeasure(2))
        assert abs(k.value - 0.25) < 1e-12

    def test_arc_vanishes_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = random_simplex(1, rng)
            assert k_value(s, RoundMeasure(1)).value == 0.0

    def test_arc_vanishes_for_atomic(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = random_simplex(1, rng)
            m = AtomicMeasure([(rng.standard_normal(2), w)
                               for w in rng.uniform(0.1, 1.0, size=3)])
            try:
                k = k_value(s, m)
            except Exception:
                continue
            assert k.value == 0.0

    def test_octant_atomic_interior(self):
        m = AtomicMeasure([(np.ones(3), 1.0)])
        k = k_value(octant(), m)
        assert k.value == 0.5  # the atomic mass of the open octant

    def test_even_dim_equals_simplex_mass(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            s = random_simplex(2, rng)
            m = RoundMeasure(2)
            mass = m.eval(s.region())
            if not mass.exact:
                continue
            assert abs(k_value(s, m).value - mass.value) < 1e-12


class TestSGBResidual:
    def test_octant_exact(self):
        r = sgb_residual(octant(), RoundMeasure(2))
        assert abs(r.value) < 1e-12 and r.exact

    def test_arc_exact(self):
        rng = np.random.default_rng(6)
        s = random_simplex(1, rng)
        r = sgb_residual(s, RoundMeasure(1))
        assert r.value == 0.0

    def test_random_simplex_monte_carlo(self):
        rng = np.random.default_rng(7)
        s = random_simplex(2, rng)
        r = sgb_residual(s, RoundMeasure(2, monte_carlo=True),
                         MCConfig(seed=11, samples=1_000_000))
        assert r.std_error > 0
        assert abs(r.value) <= 4 * r.std_error

    def test_three_sphere_simplex_monte_carlo(self):
        # odd ambient dimension: both sides of the identity vanish, so the
        # Monte Carlo residual is pure noise around 0
        rng = np.random.default_rng(8)
        s = random_simplex(3, rng)
        m = RoundMeasure(3)
        r = sgb_residual(s, m, MCConfig(seed=13, samples=200_000))
        assert abs(r.value) <= 4 * r.std_error
        k = k_value(s, m, MCConfig(seed=14, samples=200_000))
        assert abs(k.value) <= 4 * k.std_error


class TestSharedSampleCalibration:
    """z-scores of estimates whose terms share one histogram per seed.

    Combining those terms in quadrature would inflate the error bars and
    shrink the spread of z well below 1.
    """

    @staticmethod
    def assert_calibrated(estimate):
        z = []
        for seed in range(200):
            est = estimate(MCConfig(seed=seed, samples=20_000))
            z.append(est.value / est.std_error)
        z = np.array(z)
        assert np.count_nonzero(np.abs(z) > 4.0) <= 1
        assert 0.8 <= np.std(z) <= 1.25

    def test_sgb_residual_of_a_2_simplex(self):
        s = random_simplex(2, np.random.default_rng(21))
        m = RoundMeasure(2, monte_carlo=True)
        self.assert_calibrated(lambda mc: sgb_residual(s, m, mc))

    def test_k_value_of_a_3_simplex(self):
        s = random_simplex(3, np.random.default_rng(22))
        m = RoundMeasure(3)
        self.assert_calibrated(lambda mc: k_value(s, m, mc))


    def test_sample_identity_is_exact_without_spread(self):
        # an arc so short that hardly any sample lands in it or in its
        # antipode: k then has no spread, and its value must be exactly 0
        s = simplex_from_vertices([[1.0, 0.0], [np.cos(1e-3), np.sin(1e-3)]])
        m = RoundMeasure(1, monte_carlo=True)
        spreadless = 0
        for seed in range(40):
            k = k_value(s, m, MCConfig(seed=seed, samples=3000))
            assert k.is_zero(1e-9)
            if k.std_error == 0.0:
                spreadless += 1
                assert k.value == 0.0
        assert spreadless > 0


class TestInvariants:
    def test_inclusion_exclusion_round(self):
        rng = np.random.default_rng(8)
        s = random_simplex(2, rng)
        direct, expanded = antipodal_inclusion_exclusion(s, RoundMeasure(2))
        assert abs(direct - expanded) < 1e-12

    def test_inclusion_exclusion_atomic(self):
        rng = np.random.default_rng(9)
        s = random_simplex(2, rng)
        m = AtomicMeasure([(rng.standard_normal(3), 1.0) for _ in range(5)])
        direct, expanded = antipodal_inclusion_exclusion(s, m)
        assert abs(direct - expanded) < 1e-12

    def test_rotation_equivariance_round(self):
        rng = np.random.default_rng(10)
        m = RoundMeasure(2)
        for seed in range(5):
            s = random_simplex(2, rng)
            g = rotation_z(0.3 + 0.2 * seed)
            moved = apply_map(g, s)
            for cut in [(0,), (0, 1), (0, 1, 2)]:
                a = angle(s, cut, m)
                b = angle(moved, cut, m)
                if a.estimate.exact and b.estimate.exact:
                    assert abs(a.value - b.value) < 1e-9

    def test_group_equivariance_averaged_atomic(self):
        # an averaged measure gives every group element equal angles, exactly
        from gbmeasure import average_over_group
        from gbmeasure.documents import icosahedral_rotation_group
        group = icosahedral_rotation_group()
        rng = np.random.default_rng(11)
        m = average_over_group(
            AtomicMeasure([(rng.standard_normal(3), 1.0)]), group)
        s = random_simplex(2, rng)
        for g in group[:6]:
            moved = apply_map(g, s)
            for cut in [(0,), (1, 2), (0, 1, 2)]:
                assert angle(moved, cut, m).value == angle(s, cut, m).value

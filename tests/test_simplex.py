import numpy as np
import pytest

from gbmeasure import (AtomicMeasure, MCConfig, ProjectiveMap, RoundMeasure,
                       angle, apply_map, k_value, random_simplex,
                       sgb_residual, simplex_from_vertices)
from gbmeasure import measure as measure_module
from gbmeasure.measure import IndexMap
from gbmeasure.simplex import (angle_estimates, antipodal_inclusion_exclusion,
                               cut_sets, k_map)


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
        table = dict(zip(cut_sets(2), angle_estimates([s], m)))
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

    def test_sampled_tables_have_gaussian_tails_in_short_chunks(
            self, monkeypatch):
        # the kernel's constants scaled down as in the octahedron's reread
        # test: a table of one simplex samples one region, so blocks of
        # 8192 readings draw 512 fresh rows in 32-row chunks and read each
        # row 16 times, and chunk rows times reads per row stay 128 x 4.
        # z-scores of three simplices' tables against their exact tables
        monkeypatch.setattr(measure_module, "_CHUNK", 128)
        monkeypatch.setattr(measure_module, "_ROWS", 2048)
        monkeypatch.setattr(measure_module, "_BLOCK", 8192)
        assert measure_module._layout(1) == (32, 512)
        rng = np.random.default_rng(23)
        sampled = RoundMeasure(2, monte_carlo=True)
        z = []
        for s in [random_simplex(2, rng) for _ in range(3)]:
            exact = angle_estimates([s], RoundMeasure(2))
            assert all(est.exact for est in exact)
            for seed in range(200):
                table = angle_estimates(
                    [s], sampled, MCConfig(seed=seed, samples=20_000))
                z += [(est.value - ex.value) / est.std_error
                      for ex, est in zip(exact, table) if not est.exact]
        z = np.array(z)
        assert len(z) == 3 * 200 * 7
        assert np.mean(z ** 4) / np.mean(z ** 2) ** 2 <= 3.25
        assert 0.85 <= np.std(z) <= 1.15

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


class TestTwoBinRead:
    """A sampled k reads two bins of the full cut's histogram.

    Summed over the cut sets T of at most n planes within a sign code,
    (-1)^(n - |T|) is 1 at R, (-1)^n at -R and 0 at every other code, so
    k and the residual equal k_map over the angle table of the same
    readings up to rounding.  From n = 6 on the full cut is wider than
    _TREE_BITS and counts three bins; _TREE_BITS = n + 1 makes the same
    readings count every code, as the table needs.
    """

    @pytest.mark.parametrize("n", range(1, 9))
    def test_two_bins_read_what_the_angle_table_reads(self, monkeypatch, n):
        m = RoundMeasure(n, monte_carlo=True)
        even = 1.0 + (-1.0) ** n
        for seed in (1, 2):
            s = random_simplex(n, np.random.default_rng(seed))
            mc = MCConfig(seed=seed, samples=20_000)
            got = [k_value(s, m, mc), sgb_residual(s, m, mc)]
            with monkeypatch.context() as patch:
                patch.setattr(measure_module, "_TREE_BITS",
                              max(measure_module._TREE_BITS, n + 1))
                table = angle_estimates([s], m, mc)
            k = k_map(n, 1, len(table))
            want = [table.mapped(k, fsum=True)[0], table.mapped(IndexMap(
                1, [0] * (len(k.out) + 1), [*k.into, len(table) - 1],
                [*(2 * k.scale), -2.0 * even]), fsum=True)[0]]
            for g, w in zip(got, want):
                assert abs(g.value - w.value) <= 1e-15
                assert abs(g.std_error - w.std_error) <= 1e-12 * w.std_error
                assert g.samples == w.samples == mc.samples
            assert got[0].std_error > 0.0     # readings land in s or -s


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
                if a.exact and b.exact:
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

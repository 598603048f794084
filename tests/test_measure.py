import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbmeasure import (AtomicMeasure, BoundaryAtom, DimensionMismatch,
                       FiniteOrbitMeasure, Hyperplane, MCConfig,
                       MeasureEstimate, Mixture,
                       NotAGroup, NonAtomicBase, OrbitOverflow, ProjectiveMap,
                       Region, RestrictedNormalized, RoundMeasure,
                       SubsphereUniform, UnsupportedMeasure,
                       average_over_group, check_invariance,
                       finite_orbit_measure, measure_from_spec, random_region,
                       whole_sphere)
from gbmeasure import measure as measure_module
from gbmeasure._util import derive_seed
from gbmeasure.measure import derive_mc, region_histogram


def region(dim, *normals):
    return Region([Hyperplane(u) for u in normals], dim)


def rotation_x(theta):
    c, s = np.cos(theta), np.sin(theta)
    return ProjectiveMap([[1, 0, 0], [0, c, -s], [0, s, c]])


def rotation_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    return ProjectiveMap([[c, -s, 0], [s, c, 0], [0, 0, 1]])


class TestRoundExact:
    def setup_method(self):
        self.m = RoundMeasure(2)

    def test_whole_sphere(self):
        est = self.m.eval(whole_sphere(2))
        assert est.value == 2.0 and est.exact

    def test_hemisphere(self):
        est = self.m.eval(region(2, [0, 0, 1]))
        assert est.value == 1.0 and est.exact

    def test_octant(self):
        est = self.m.eval(region(2, [1, 0, 0], [0, 1, 0], [0, 0, 1]))
        assert abs(est.value - 0.25) < 1e-15 and est.exact

    def test_lune_right_angle(self):
        est = self.m.eval(region(2, [1, 0, 0], [0, 1, 0]))
        assert abs(est.value - 0.5) < 1e-15

    def test_lune_degenerate_pairs(self):
        same = self.m.eval(region(2, [0, 0, 1], [0, 0, 1]))
        assert abs(same.value - 1.0) < 1e-12
        empty = self.m.eval(region(2, [0, 0, 1], [0, 0, -1]))
        assert abs(empty.value) < 1e-7  # acos rounding near -1

    def test_triangle_matches_monte_carlo(self):
        rng = np.random.default_rng(42)
        mc_measure = RoundMeasure(2, monte_carlo=True)
        for _ in range(5):
            r = random_region(2, rng, 3)
            exact = self.m.eval(r)
            if not exact.exact:
                continue
            est = mc_measure.eval(r, MCConfig(seed=7, samples=200_000))
            assert abs(est.value - exact.value) <= 4 * est.std_error

    def test_triangle_against_lhuilier_oracle(self):
        # independent closed form: half-perimeter tangent formula applied to
        # the triangle's side arcs (vertices = normalized dual basis)
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(200):
            normals = rng.standard_normal((3, 3))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            if abs(np.linalg.det(normals)) < 1e-6:
                continue
            est = self.m.eval(Region([Hyperplane(u) for u in normals], 2))
            assert est.exact
            dual = np.linalg.inv(normals)
            v = dual / np.linalg.norm(dual, axis=0, keepdims=True)
            a = np.arccos(np.clip(v[:, 1] @ v[:, 2], -1, 1))
            b = np.arccos(np.clip(v[:, 0] @ v[:, 2], -1, 1))
            c = np.arccos(np.clip(v[:, 0] @ v[:, 1], -1, 1))
            s = (a + b + c) / 2
            t = (np.tan(s / 2) * np.tan((s - a) / 2) * np.tan((s - b) / 2)
                 * np.tan((s - c) / 2))
            oracle = 4 * np.arctan(np.sqrt(max(t, 0.0))) / (2 * np.pi)
            assert abs(oracle - est.value) < 1e-10
            checked += 1
        assert checked > 150

    def test_antipodal_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            r = random_region(2, rng, 3)
            a = self.m.eval(r)
            b = self.m.eval(r.antipodal())
            if a.exact and b.exact:
                assert abs(a.value - b.value) < 1e-12

    def test_additive_split(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            r = random_region(2, rng, 2)
            h = Hyperplane(rng.standard_normal(3))
            whole = self.m.eval(r)
            plus = self.m.eval(r.intersect(region(2, h.normal)))
            minus = self.m.eval(r.intersect(region(2, -h.normal)))
            if whole.exact and plus.exact and minus.exact:
                assert abs(plus.value + minus.value - whole.value) < 1e-12


class TestArcMeasure:
    def test_full_and_half(self):
        m = RoundMeasure(1)
        assert m.eval(whole_sphere(1)).value == 2.0
        assert abs(m.eval(region(1, [1, 0])).value - 1.0) < 1e-15

    def test_grid_oracle(self):
        # independent oracle: count grid points satisfying the sign tests
        rng = np.random.default_rng(17)
        m = RoundMeasure(1)
        thetas = (np.arange(200_000) + 0.5) * (2 * np.pi / 200_000)
        pts = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        for _ in range(20):
            k = rng.integers(1, 4)
            normals = rng.standard_normal((k, 2))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            exact = m.eval(Region([Hyperplane(u) for u in normals], 1)).value
            frac = np.all(pts @ normals.T > 0, axis=1).mean()
            assert abs(exact - 2 * frac) < 1e-3


class TestMonteCarlo:
    def test_deterministic_for_seed(self):
        m = RoundMeasure(3)
        r = region(3, [1, 0, 0, 0], [0, 1, 0, 0])
        a = m.eval(r, MCConfig(seed=5, samples=50_000))
        b = m.eval(r, MCConfig(seed=5, samples=50_000))
        assert a == b
        c = m.eval(r, MCConfig(seed=6, samples=50_000))
        assert a != c

    def test_thread_count_does_not_change_result(self, monkeypatch):
        m = RoundMeasure(3)
        r = region(3, [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0])
        monkeypatch.setenv("GBM_THREADS", "1")
        a = m.eval(r, MCConfig(seed=1, samples=300_000))
        monkeypatch.setenv("GBM_THREADS", "4")
        b = m.eval(r, MCConfig(seed=1, samples=300_000))
        assert a == b

    def test_derived_seeds_use_64_bits(self):
        seeds = [derive_seed(1, key) for key in range(64)]
        assert all(0 <= seed < 2 ** 64 for seed in seeds)
        assert max(seeds) >= 2 ** 32

    def test_octant_unbiased_over_seeds(self):
        m = RoundMeasure(2, monte_carlo=True)
        r = region(2, [1, 0, 0], [0, 1, 0], [0, 0, 1])
        ests = [m.eval(r, MCConfig(seed=s, samples=20_000))
                for s in range(100)]
        mean = np.mean([e.value for e in ests])
        pooled = math.sqrt(sum(e.std_error ** 2 for e in ests)) / len(ests)
        assert abs(mean - 0.25) <= 4 * pooled

    @staticmethod
    def _coder_regions(dim, seed):
        """Regions of 3, 3, 1, 17, 17, 17, 17, 2 and 2 planes: with
        _GROUP_PLANES = 64 the 17-plane ones split into two stacks."""
        rng = np.random.default_rng(seed)
        axis = np.eye(dim + 1)[0]
        return [Region([Hyperplane(axis + 0.3 * rng.standard_normal(dim + 1)
                                   if h > measure_module._CODE_BITS
                                   else rng.standard_normal(dim + 1))
                        for _ in range(h)], dim)
                for h in (3, 3, 1, 17, 17, 17, 17, 2, 2)]

    def test_sign_coder_matches_plane_by_plane_reference(self, monkeypatch):
        mm = measure_module
        monkeypatch.setattr(mm, "_BLOCK", 500)
        monkeypatch.setattr(mm, "_CHUNK", 64)
        dim, width = 3, 4
        regions = self._coder_regions(dim, 1)
        mc = MCConfig(seed=9, samples=1200)
        got = [region_histogram(est).counts
               for est in RoundMeasure(dim, monte_carlo=True).eval_many(
                   regions, mc)]
        assert [len(c) for c in got] == [8, 8, 2, 2, 2, 2, 2, 4, 4]
        # rebuild every chunk's rotations and test one plane at a time
        sizes = [g.count for g in mm._plane_groups(
            [r.normals for r in regions])]
        assert sizes == [2, 1, 3, 1, 2]
        want = [np.zeros(len(c), dtype=int) for c in got]
        for b, start in enumerate(range(0, mc.samples, mm._BLOCK)):
            x = mm._rng(mc, mm._ROLE_BLOCK, b).standard_normal(
                (min(mm._BLOCK, mc.samples - start), width))
            rotations = mm._rng(mc, mm._ROLE_REGION, b)
            chunks = range(0, len(x), mm._CHUNK)
            first = 0
            for size in sizes:
                q = mm._haar_rotations(rotations, (len(chunks), size), width)
                assert np.allclose(q @ np.swapaxes(q, -1, -2), np.eye(width))
                for c, row in enumerate(chunks):
                    rows = x[row:row + mm._CHUNK]
                    for i in range(first, first + size):
                        signs = [rows @ (u @ q[c, i - first]) > 0.0
                                 for u in regions[i].normals]
                        if len(signs) > mm._CODE_BITS:
                            code = np.all(signs, axis=0).astype(int)
                        else:
                            code = sum(s.astype(int) << j
                                       for j, s in enumerate(signs))
                        want[i] += np.bincount(code, minlength=len(want[i]))
                first += size
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert 0 < want[3][1] < mc.samples   # the wide region is hit

    @pytest.mark.parametrize("measure", [
        RoundMeasure(3),
        SubsphereUniform(np.linalg.qr(
            np.random.default_rng(4).standard_normal((4, 3)))[0].T)])
    def test_union_matches_region_by_region_reference(self, monkeypatch,
                                                      measure):
        mm = measure_module
        monkeypatch.setattr(mm, "_BLOCK", 500)
        monkeypatch.setattr(mm, "_CHUNK", 64)
        # a single plane and its antipode would cover the whole sphere
        regions = [r for r in self._coder_regions(3, 2) if len(r.halves) > 1]
        mc = MCConfig(seed=5, samples=1200)
        sub = derive_mc(mc, mm._ROLE_UNION)
        hits = 0
        for b, start in enumerate(range(0, mc.samples, mm._BLOCK)):
            x = measure._draw()(mm._rng(sub, mm._ROLE_BLOCK, b),
                                min(mm._BLOCK, mc.samples - start))
            hit = np.zeros(len(x), dtype=bool)
            for r in regions:
                dots = x @ r.normals.T
                hit |= np.all(dots > 0.0, axis=1) | np.all(dots < 0.0, axis=1)
            hits += int(np.count_nonzero(hit))
        assert 0 < hits < mc.samples
        est = measure.union_mass(regions, mc)
        assert est.samples == mc.samples
        assert est.value == 2.0 * hits / mc.samples
        # a region without planes is the whole sphere
        whole = measure.union_mass(regions + [Region([], 3)], mc)
        assert (whole.value, whole.std_error) == (2.0, 0.0)

    def test_hemisphere_std_error_calibrated(self):
        m = RoundMeasure(2, monte_carlo=True)
        r = region(2, [0, 0, 1])
        ests = [m.eval(r, MCConfig(seed=s, samples=20_000))
                for s in range(100)]
        scatter = np.std([e.value for e in ests], ddof=1)
        reported = np.mean([e.std_error for e in ests])
        assert reported / 2 <= scatter <= reported * 2


class TestAtomic:
    def test_axis_pair(self):
        m = AtomicMeasure([(np.array([0.0, 0.0, 1.0]), 1.0)])
        est = m.eval(region(2, [0.1, 0.2, 0.97]))
        assert est.value == 0.5 and est.exact
        assert m.total_mass == 1.0

    def test_probability_lift_mass(self):
        m = AtomicMeasure.dirac([1.0, 2.0, 2.0])
        assert m.total_mass == 2.0
        assert m.eval(whole_sphere(2)).value == 2.0

    def test_boundary_atom_raises(self):
        m = AtomicMeasure.dirac([0.0, 0.0, 1.0])
        with pytest.raises(BoundaryAtom):
            m.eval(region(2, [1, 0, 0]))

    def test_antipodal_invariance_exact(self):
        rng = np.random.default_rng(23)
        m = AtomicMeasure([(rng.standard_normal(3), w)
                           for w in (0.3, 0.5, 1.2)])
        for _ in range(10):
            r = random_region(2, rng, 2)
            assert m.eval(r).value == m.eval(r.antipodal()).value

    def test_additive_split_exact(self):
        rng = np.random.default_rng(29)
        m = AtomicMeasure([(rng.standard_normal(3), 1.0) for _ in range(4)])
        r = random_region(2, rng, 1)
        h = rng.standard_normal(3)
        whole = m.eval(r).value
        plus = m.eval(r.intersect(region(2, h))).value
        minus = m.eval(r.intersect(region(2, -np.asarray(h)))).value
        assert plus + minus == whole

    def test_merge_of_duplicate_atoms(self):
        m = AtomicMeasure([([0, 0, 1], 1.0), ([0, 0, -1], 1.0)])
        assert len(m.points) == 2
        assert m.total_mass == 2.0


class TestSubsphere:
    def setup_method(self):
        self.inf = SubsphereUniform(np.array([[1.0, 0, 0], [0, 1.0, 0]]))

    def test_total_mass(self):
        assert self.inf.eval(whole_sphere(2)).value == 2.0

    def test_half_circle(self):
        est = self.inf.eval(region(2, [1, 0, 0]))
        assert abs(est.value - 1.0) < 1e-15 and est.exact

    def test_quarter_arc(self):
        est = self.inf.eval(region(2, [1, 0, 0], [0, 1, 0]))
        assert abs(est.value - 0.5) < 1e-12

    def test_normal_orthogonal_to_support_raises(self):
        with pytest.raises(BoundaryAtom):
            self.inf.eval(region(2, [0, 0, 1]))

    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            SubsphereUniform(np.array([[1.0, 0, 0], [1.0, 1.0, 0]]))
        ok = SubsphereUniform.from_spanning(np.array([[2.0, 0, 0],
                                                      [3.0, 4.0, 0]]))
        assert ok.subsphere_dim == 1

    def test_shear_invariance_exact(self):
        # affine translations act trivially on the circle at infinity
        shear = ProjectiveMap([[1, 0, 3.0], [0, 1, -2.0], [0, 0, 1]])
        regions = [region(2, [0.6, 0.8, 0.0], [0.8, -0.6, 0.1]),
                   region(2, [1, 2, 0.5])]
        report = check_invariance(self.inf, [shear], regions)
        assert report.passed and report.max_discrepancy < 1e-12


class TestMixtureAndRestriction:
    def test_mixture_combination(self):
        mix = Mixture([(0.5, RoundMeasure(2)),
                       (0.5, AtomicMeasure.dirac([0.3, 0.4, 0.9]))])
        est = mix.eval(whole_sphere(2))
        assert abs(est.value - 2.0) < 1e-12
        # octant: round contributes 0.25, the dirac atom sits inside it
        octant = region(2, [1, 0, 0], [0, 1, 0], [0, 0, 1])
        assert abs(mix.eval(octant).value - 0.5 * 0.25 - 0.5 * 1.0) < 1e-12

    def test_mixture_weights_validated(self):
        with pytest.raises(ValueError):
            Mixture([(0.4, RoundMeasure(2)), (0.4, RoundMeasure(2))])

    def test_restricted_region_total_mass(self):
        base = RoundMeasure(2)
        restr = RestrictedNormalized(base, region=region(2, [0, 0, 1]))
        assert abs(restr.eval(whole_sphere(2)).value - 2.0) < 1e-12
        assert abs(restr.eval(region(2, [0, 0, 1])).value - 1.0) < 1e-12

    def test_restricted_subspace_atomic(self):
        base = AtomicMeasure([([1, 0, 0], 1.0), ([0, 0, 1], 3.0)])
        restr = RestrictedNormalized(base,
                                     subspace=np.array([[0.0, 0.0, 1.0]]))
        assert abs(restr.eval(whole_sphere(2)).value - 2.0) < 1e-12
        est = restr.eval(region(2, [0.1, 0.2, 0.97]))
        assert abs(est.value - 1.0) < 1e-12

    def test_restricted_round_to_subsphere_rejected(self):
        with pytest.raises(UnsupportedMeasure):
            RestrictedNormalized(
                RoundMeasure(2),
                subspace=np.array([[1.0, 0, 0], [0, 1.0, 0]])
            ).eval(whole_sphere(2))


def klein_four_group():
    d1 = ProjectiveMap(np.diag([-1.0, -1.0, 1.0]))
    d2 = ProjectiveMap(np.diag([1.0, -1.0, -1.0]))
    return [ProjectiveMap(np.eye(3)), d1, d2, d1.compose(d2)]


class TestAveraging:
    def test_identity_group_keeps_base(self):
        base = AtomicMeasure.dirac([1.0, 0, 0])
        out = average_over_group(base, [ProjectiveMap.identity(2)])
        assert np.allclose(sorted(out.weights), sorted(base.weights))

    def test_klein_four_orbit(self):
        p = np.array([0.3, 0.5, 0.81])
        base = AtomicMeasure.dirac(p)
        out = average_over_group(base, klein_four_group())
        assert len(out.points) == 8
        assert np.allclose(out.weights, 0.25)
        regions = [random_region(2, np.random.default_rng(s), 2)
                   for s in range(20)]
        report = check_invariance(out, klein_four_group(), regions)
        assert report.passed and report.max_discrepancy == 0.0

    def test_not_a_group(self):
        with pytest.raises(NotAGroup):
            average_over_group(AtomicMeasure.dirac([1, 0, 0]),
                               [ProjectiveMap.identity(2), rotation_z(1.0)])

    def test_non_atomic_base(self):
        with pytest.raises(NonAtomicBase):
            average_over_group(RoundMeasure(2), [ProjectiveMap.identity(2)])


class TestFiniteOrbit:
    def test_fixed_point(self):
        m = finite_orbit_measure([0, 0, 1.0], [rotation_z(0.7)], 10)
        assert isinstance(m, FiniteOrbitMeasure)
        assert len(m.orbit) == 1
        assert m.eval(region(2, [0.1, 0.2, 0.97])).value == 1.0

    def test_five_cycle(self):
        m = finite_orbit_measure([0.6, 0, 0.8], [rotation_z(2 * np.pi / 5)],
                                 10)
        assert len(m.orbit) == 5
        assert np.allclose(m.weights, 1.0 / 5.0)

    def test_irrational_rotation_overflows(self):
        with pytest.raises(OrbitOverflow):
            finite_orbit_measure([1.0, 0, 0], [rotation_z(1.0)], 100)


class TestEstimateAlgebra:
    def test_exact_plus_minus_exact_stays_exact(self):
        a, b = MeasureEstimate(0.75), MeasureEstimate(0.5)
        for est, value in ((a + b, 1.25), (a - b, 0.25)):
            assert est == MeasureEstimate(value)
            assert est.exact

    def test_errors_add_by_hypot_and_samples_add(self):
        a = MeasureEstimate(1.0, 0.3, 100)
        b = MeasureEstimate(2.0, 0.4, 50)
        for est, value in ((a + b, 3.0), (a - b, -1.0)):
            assert est.value == value
            assert est.std_error == math.hypot(0.3, 0.4)
            assert est.samples == 150
        assert (a + MeasureEstimate(0.5)).std_error == 0.3

    def test_scalar_multiple_and_integer_division(self):
        a = MeasureEstimate(1.5, 0.2, 40)
        assert -2 * a == a * -2 == MeasureEstimate(-3.0, 0.4, 40)
        assert a / 3 == MeasureEstimate(0.5, 0.2 / 3, 40)

    def test_shared_histogram_adds_coefficients(self):
        m = RoundMeasure(2, monte_carlo=True)
        est = m.eval(region(2, [1, 0, 0], [0, 1, 0]),
                     MCConfig(seed=2, samples=20_000))
        doubled = est + est
        assert doubled.value == 2 * est.value
        assert doubled.samples == est.samples == 20_000
        assert math.isclose(doubled.std_error, 2 * est.std_error)
        zero = est - est
        assert zero.value == 0.0 and zero.std_error == 0.0
        # an estimate given by value and error alone is its own source too
        a = MeasureEstimate(1.0, 0.3, 100)
        assert math.isclose((a + a).std_error, 0.6)

    def test_is_zero_uses_tol_when_exact_and_four_sigma_otherwise(self):
        assert MeasureEstimate(1e-10).is_zero(1e-9)
        assert not MeasureEstimate(1e-8).is_zero(1e-9)
        assert MeasureEstimate(0.039, 0.01, 1000).is_zero(1e-9)
        assert not MeasureEstimate(0.041, 0.01, 1000).is_zero(1e-9)
        # a Monte Carlo zero with no spread must be exactly zero
        assert not MeasureEstimate(1e-12, 0.0, 1000).is_zero(1e-9)


class TestInvarianceChecks:
    def test_round_rotation_invariant(self):
        rng = np.random.default_rng(31)
        regions = [random_region(2, rng, k) for k in (1, 2, 3)]
        report = check_invariance(RoundMeasure(2),
                                  [rotation_z(0.9), rotation_x(0.4)], regions)
        assert report.passed

    def test_atomic_fails_under_moving_rotation(self):
        m = AtomicMeasure.dirac([0, 0, 1.0])
        tri = region(2, [0.8, 0, 0.6], [-0.4, 0.69, 0.6], [-0.4, -0.69, 0.6])
        report = check_invariance(m, [rotation_x(1.2)], [tri])
        assert not report.passed
        assert report.max_discrepancy == 1.0

    def test_monte_carlo_verdict(self):
        rng = np.random.default_rng(37)
        regions = [random_region(3, rng, 2)]
        mrot = np.eye(4)
        mrot[:2, :2] = [[np.cos(0.5), -np.sin(0.5)],
                        [np.sin(0.5), np.cos(0.5)]]
        report = check_invariance(RoundMeasure(3), [ProjectiveMap(mrot)],
                                  regions, MCConfig(seed=2, samples=100_000))
        assert report.passed


class TestSupportSubspaces:
    def test_round_reports_none(self):
        assert RoundMeasure(4).support_subspaces() == []

    def test_atomic_dedups_antipodal_pairs(self):
        m = AtomicMeasure([([0, 0, 1.0], 1.0), ([1.0, 0, 0], 0.5)])
        subs = m.support_subspaces()
        assert len(subs) == 2
        assert all(s.shape == (1, 3) for s in subs)

    def test_subsphere_reports_basis(self):
        basis = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        subs = SubsphereUniform(basis).support_subspaces()
        assert len(subs) == 1 and np.allclose(subs[0], basis)

    def test_mixture_unions_components(self):
        mix = Mixture([(0.5, RoundMeasure(2)),
                       (0.25, AtomicMeasure.dirac([0, 0, 1.0])),
                       (0.25, SubsphereUniform(
                           np.array([[1.0, 0, 0], [0, 1.0, 0]])))])
        assert len(mix.support_subspaces()) == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_exact_split_additivity(seed):
    # eval(R and H+) + eval(R and H-) = eval(R) when no atom lies on H
    rng = np.random.default_rng(seed)
    atomic = AtomicMeasure([(rng.standard_normal(3), w)
                            for w in rng.uniform(0.1, 1.0, size=3)])
    r = random_region(2, rng, int(rng.integers(0, 3)))
    h = rng.standard_normal(3)
    plus, minus = region(2, h), region(2, -h)
    for m in (atomic, RoundMeasure(2)):
        whole = m.eval(r)
        try:
            a = m.eval(r.intersect(plus))
            b = m.eval(r.intersect(minus))
        except BoundaryAtom:
            continue
        if whole.exact and a.exact and b.exact:
            assert abs(a.value + b.value - whole.value) < 1e-12


class TestSpecFormat:
    def test_round(self):
        m = measure_from_spec({"type": "round"}, 2)
        assert isinstance(m, RoundMeasure) and m.dim == 2

    def test_atomic(self):
        m = measure_from_spec(
            {"type": "atomic",
             "atoms": [{"point": [0, 0, 1], "weight": 2.0}]}, 2)
        assert isinstance(m, AtomicMeasure) and m.total_mass == 2.0

    def test_subsphere(self):
        m = measure_from_spec(
            {"type": "subsphere", "basis": [[1, 0, 0], [0, 1, 0]]}, 2)
        assert isinstance(m, SubsphereUniform)

    def test_mixture_restricted_orbit(self):
        spec = {"type": "mixture",
                "components": [
                    {"weight": 0.5, "measure": {"type": "round"}},
                    {"weight": 0.5,
                     "measure": {"type": "restricted",
                                 "base": {"type": "round"},
                                 "region": [[0, 0, 1]]}}]}
        m = measure_from_spec(spec, 2)
        assert abs(m.eval(whole_sphere(2)).value - 2.0) < 1e-12
        orbit = measure_from_spec(
            {"type": "orbit", "seed_point": [0.6, 0, 0.8],
             "generators": [rotation_z(2 * np.pi / 5).matrix.tolist()],
             "max_orbit": 10}, 2)
        assert len(orbit.orbit) == 5

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            measure_from_spec({"type": "round", "dim": 3}, 2)

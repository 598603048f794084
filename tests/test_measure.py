import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbmeasure import (AtomicMeasure, BoundaryAtom, DimensionMismatch,
                       FiniteOrbitMeasure, MCConfig,
                       MeasureEstimate, Mixture,
                       NotAGroup, NonAtomicBase, OrbitOverflow, ProjectiveMap,
                       Region, RestrictedNormalized, RoundMeasure,
                       SubsphereUniform, UnsupportedMeasure,
                       apply_map, average_over_group, check_invariance,
                       finite_orbit_measure, measure_from_spec, random_region,
                       whole_sphere)
from gbmeasure import measure as measure_module
from gbmeasure.documents import builtin_document
from gbmeasure.triangulation import _holonomy_words, dichotomy_check, load
from gbmeasure._util import derive_seed, normalized
from gbmeasure.measure import Estimates, IndexMap, derive_mc


def region(dim, *normals):
    return Region(normals, dim)


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
            est = self.m.eval(Region(normals, 2))
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
            h = rng.standard_normal(3)
            whole = self.m.eval(r)
            plus = self.m.eval(r.intersect(region(2, h)))
            minus = self.m.eval(r.intersect(region(2, -h)))
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
            exact = m.eval(Region(normals, 1)).value
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
        """Regions of 3, 3, 1, 17, 17, 17, 17, 2, 2 and 9 planes: with
        _GROUP_PLANES = 64 the 17-plane ones split into two stacks.  The
        planes of a region wider than _TREE_BITS lie near one axis, so
        that readings land in R, in -R and elsewhere."""
        rng = np.random.default_rng(seed)
        axis = np.eye(dim + 1)[0]
        return [Region([axis + 0.3 * rng.standard_normal(dim + 1)
                        if h > measure_module._TREE_BITS
                        else rng.standard_normal(dim + 1)
                        for _ in range(h)], dim)
                for h in (3, 3, 1, 17, 17, 17, 17, 2, 2, 9)]

    @staticmethod
    def _plane_by_plane_counts(regions, mc, bins, dtype=np.float32):
        """The regions' histograms rebuilt one plane at a time in the
        layout of the call (_layout): every chunk's rotations, with reading
        chunk c read from fresh row chunk c mod (_ROWS / _CHUNK).  Signs
        are tested as the kernel tests them, each plane turned in float64
        and rounded to float32 times the float32 rows, or with
        dtype=np.float64 by float64 products.  A region wider than
        _TREE_BITS counts the bins [-R, elsewhere, R]."""
        mm = measure_module
        width = regions[0].ambient_dim + 1
        chunk, fresh_rows = mm._layout(len(regions))
        sizes = [g.count for g in mm._plane_groups(
            [r.normals for r in regions], chunk)]
        want = [np.zeros(n, dtype=int) for n in bins]
        for b, start in enumerate(range(0, mc.samples, mm._BLOCK)):
            size = min(mm._BLOCK, mc.samples - start)
            x = mm._gaussian_draw(width)(mm._rng(mc, mm._ROLE_BLOCK, b),
                                         min(size, fresh_rows))
            rotations = mm._rng(mc, mm._ROLE_REGION, b)
            chunks = range(0, size, chunk)
            first = 0
            for count in sizes:
                q = mm._haar_rotations(rotations, (len(chunks), count), width)
                assert np.allclose(q @ np.swapaxes(q, -1, -2), np.eye(width))
                for c, row in enumerate(chunks):
                    fresh = c % (fresh_rows // chunk) * chunk
                    rows = x[fresh:fresh + min(chunk, size - row)]
                    for i in range(first, first + count):
                        signs = [rows.astype(dtype)
                                 @ (u @ q[c, i - first]).astype(dtype) > 0.0
                                 for u in regions[i].normals]
                        if len(signs) > mm._TREE_BITS:
                            code = (np.all(signs, axis=0).astype(int)
                                    + np.any(signs, axis=0))
                        else:
                            code = sum(s.astype(int) << j
                                       for j, s in enumerate(signs))
                        want[i] += np.bincount(code, minlength=len(want[i]))
                first += count
        return want

    # all ten coder regions read 64-row chunks (f = 1); four of them, of 3,
    # 17, 2 and 9 planes, read 32-row chunks (f = 2), and two, of 3 and 9
    # planes, 16-row chunks (f = 4).  The ids count the regions of each
    # pick other than the 9-plane one, which joins every pick
    _CODER_PICKS = pytest.mark.parametrize("picks, sizes, chunk", [
        (range(10), [2, 1, 3, 1, 2, 1], 64), ((0, 3, 7, 9), [1, 1, 1, 1], 32),
        ((0, 9), [1, 1], 16)], ids=["9-regions", "3-regions", "1-region"])

    @_CODER_PICKS
    def test_sign_coder_matches_plane_by_plane_reference(self, monkeypatch,
                                                         picks, sizes, chunk):
        mm = measure_module
        monkeypatch.setattr(mm, "_BLOCK", 500)
        monkeypatch.setattr(mm, "_CHUNK", 64)
        dim = 3
        regions = [self._coder_regions(dim, 1)[i] for i in picks]
        mc = MCConfig(seed=9, samples=1200)
        got = RoundMeasure(dim, monte_carlo=True).eval_many(
            regions, mc).histograms
        assert [len(c) for c in got] == [
            [8, 8, 2, 3, 3, 3, 3, 4, 4, 3][i] for i in picks]
        assert mm._layout(len(regions))[0] == chunk
        assert [g.count for g in mm._plane_groups(
            [r.normals for r in regions], chunk)] == sizes
        want = self._plane_by_plane_counts(regions, mc, map(len, got))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        for i, w in zip(picks, want):
            if i in (3, 9):             # each bin of a wide region is hit
                assert w.min() > 0

    @_CODER_PICKS
    def test_sign_coder_rereads_rows_beyond_the_fresh_row_cap(self,
                                                             monkeypatch,
                                                             picks, sizes,
                                                             chunk):
        # blocks of 500 readings draw 128 / f fresh rows, two row chunks
        # of 64 / f: reading chunk c reads row chunk c mod 2 through its
        # rotation; sample counts below, at and above _ROWS and _BLOCK
        mm = measure_module
        monkeypatch.setattr(mm, "_BLOCK", 500)
        monkeypatch.setattr(mm, "_CHUNK", 64)
        monkeypatch.setattr(mm, "_ROWS", 128)
        dim = 3
        regions = [self._coder_regions(dim, 3)[i] for i in picks]
        for samples in (100, 128, 161, 500, 501, 1200):
            mc = MCConfig(seed=11, samples=samples)
            got = RoundMeasure(dim, monte_carlo=True).eval_many(
                regions, mc).histograms
            want = self._plane_by_plane_counts(regions, mc, map(len, got))
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            assert all(w.sum() == mc.samples for w in want)
        for i, w in zip(picks, want):
            if i in (3, 9):             # each bin of a wide region is hit
                assert w.min() > 0

    def test_float32_sign_test_moves_few_counts(self):
        # a float32 product can flip only a reading within about 2.4e-7
        # relative of a plane: over 2^20 readings the kernel's histograms
        # stay within 1e-5 of readings x planes of a float64-product
        # reference of the same readings
        rng = np.random.default_rng(21)
        mc = MCConfig(seed=17, samples=1 << 20)
        for dim, h, count in ((2, 3, 8), (4, 5, 1)):
            regions = [Region(rng.standard_normal((h, dim + 1)), dim)
                       for _ in range(count)]
            got = RoundMeasure(dim, monte_carlo=True).eval_many(
                regions, mc).histograms
            want = self._plane_by_plane_counts(regions, mc, map(len, got),
                                               np.float64)
            moved = sum(int(abs(g - w).sum()) for g, w in zip(got, want))
            assert moved <= 1e-5 * mc.samples * h * count

    @staticmethod
    def _rotated_union_hits(measure, regions, mc):
        """The union's hits rebuilt region by region from the readings of
        _region_histograms for one region, in its layout (_layout(1)):
        every chunk's rotation, with reading chunk c read from fresh row
        chunk c mod (_ROWS / _CHUNK), each normal turned in float64 and
        rounded to float32 times the float32 rows, as the kernel tests
        signs."""
        mm = measure_module
        chunk, fresh_rows = mm._layout(1)
        sub = derive_mc(mc, mm._ROLE_UNION)
        width = getattr(measure, "basis", np.eye(4)).shape[0]
        normals = [measure._reduced_normals(r) for r in regions]
        hits = 0
        for b, start in enumerate(range(0, mc.samples, mm._BLOCK)):
            size = min(mm._BLOCK, mc.samples - start)
            x = mm._gaussian_draw(width)(mm._rng(sub, mm._ROLE_BLOCK, b),
                                         min(size, fresh_rows))
            chunks = range(0, size, chunk)
            q = mm._haar_rotations(mm._rng(sub, mm._ROLE_REGION, b),
                                   (len(chunks), 1), width)
            for c, row in enumerate(chunks):
                fresh = c % (fresh_rows // chunk) * chunk
                rows = x[fresh:fresh + min(chunk, size - row)]
                hit = np.zeros(len(rows), dtype=bool)
                for u in normals:
                    dots = rows @ (u @ q[c, 0]).astype(np.float32).T
                    hit |= (np.all(dots > 0.0, axis=1)
                            | np.all(dots < 0.0, axis=1))
                hits += int(np.count_nonzero(hit))
        return hits

    @pytest.mark.parametrize("measure", [
        RoundMeasure(3),
        SubsphereUniform(np.linalg.qr(
            np.random.default_rng(4).standard_normal((4, 3)))[0].T)])
    def test_coded_union_matches_region_by_region_reference(self,
                                                          monkeypatch,
                                                          measure):
        # every union, of 5 or of 24 distinct planes, reads the readings of
        # _region_histograms for one region of its planes, here with 128
        # fresh rows per block of 500 readings; _GROUP_PLANES = 1 keeps a
        # slice of needs within 64 words, so the 24 needs of the wide union
        # take three slices of the 8 words of a block, and multiplies one
        # plane at a time
        mm = measure_module
        monkeypatch.setattr(mm, "_BLOCK", 500)
        monkeypatch.setattr(mm, "_CHUNK", 64)
        monkeypatch.setattr(mm, "_ROWS", 128)
        monkeypatch.setattr(mm, "_GROUP_PLANES", 1)
        # the last normal, (1, 1, -1, 1) / 2, is negated exactly by
        # negating its row, and merges with it as one plane
        p = list(np.random.default_rng(6).standard_normal((4, 4)))
        p.append(np.array([1.0, 1, -1, 1]))
        few = [Region([p[0], p[1], -p[2]], 3),
               Region([p[1], p[3], p[1]], 3),            # p1 twice
               Region([p[4], p[0], -p[4]], 3),           # empty
               Region([-p[3], p[4]], 3)]
        # more than the 16 planes that once sent a union to fresh rows
        q = np.random.default_rng(7).standard_normal((24, 4))
        many = [Region([q[i], -q[(i + 1) % 24], q[(i + 5) % 24]], 3)
                for i in range(0, 24, 2)]
        mc = MCConfig(seed=8, samples=1200)
        for regions in (few, many):
            hits = self._rotated_union_hits(measure, regions, mc)
            assert 0 < hits < mc.samples
            est = measure.union_mass(regions, mc)
            assert est.samples == mc.samples
            assert est.value == 2.0 * hits / mc.samples
        # neither draws: a region listing a plane with both signs holds
        # nothing, and a region without planes is the whole sphere
        monkeypatch.setattr(mm, "_region_histograms", None)
        empty = [Region([p[4], p[0], -p[4]], 3),
                 Region([q[0], q[9], q[3], -q[9]], 3),
                 Region([-q[5], q[5]], 3)]
        for regions, value in ((empty[:1], 0.0), (empty, 0.0), ([], 0.0),
                               (few + [Region([], 3)], 2.0),
                               (many + [Region([], 3)], 2.0)):
            est = measure.union_mass(regions, mc)
            assert (est.value, est.std_error, est.samples) == (
                value, 0.0, mc.samples)

    @pytest.mark.parametrize("samples", [1, 2047, 2049])
    def test_union_padding_leaves_the_hit_count(self, samples):
        # planes are stored as first listed, so in the first union the
        # antipode of the first region needs every plane negative, and a
        # reading clear in every plane, as the padding of a short chunk
        # is, is a hit; in the second (its first region is empty) every
        # need has a positive plane, and such a reading is a miss
        m = RoundMeasure(3, monte_carlo=True)
        p = np.random.default_rng(12).standard_normal((4, 4))
        mixed = Region([-p[0], p[2], -p[3]], 3)
        mc = MCConfig(seed=samples, samples=samples)
        for first in (Region([p[0], p[1]], 3),
                      Region([p[0], p[1], -p[0]], 3)):
            regions = [first, Region([p[0], -p[1]], 3), mixed]
            est = m.union_mass(regions, mc)
            hits = self._rotated_union_hits(m, regions, mc)
            assert est.samples == samples
            assert est.value == 2.0 * hits / samples
            assert m._union_mass(regions, mc).histograms[0].tolist(
                ) == [samples - hits, hits]

    def test_union_merges_a_plane_with_its_flip(self, monkeypatch):
        # nine planes, each region pairing one with the next one negated:
        # merged up to sign they are nine, within _CODE_BITS, so the union
        # reads one region histogram of nine planes
        mm = measure_module
        rng = np.random.default_rng(13)
        p = rng.standard_normal((9, 4))
        regions = [Region([p[i], -p[(i + 1) % 9]], 3)
                   for i in range(9)]
        histograms = mm._region_histograms
        planes = []
        monkeypatch.setattr(mm, "_region_histograms", lambda sets, *args: (
            planes.append(len(sets[0])) or histograms(sets, *args)))
        m = RoundMeasure(3, monte_carlo=True)
        mc = MCConfig(seed=4, samples=5000)
        assert 0.0 < m.union_mass(regions, mc).value < 2.0
        assert planes == [9]
        # a region listing a plane with both signs holds nothing
        empty = m.union_mass([Region([p[0], p[1], -p[0]], 3)], mc)
        assert (empty.value, empty.std_error) == (0.0, 0.0)

    def test_grid_chart_union_reads_its_three_planes_at_infinity(
            self, monkeypatch):
        # the grid lines of t2-grid point three ways, so the reduced normals
        # of its 160 charts (32 tops under 5 holonomy words) merge into 3
        # planes of the circle at infinity; normals an ulp apart count as
        # one.  Each chart has closed-form mass 0 there, so the dichotomy's
        # union leaves every one of them out and draws nothing
        mm = measure_module
        histograms = mm._region_histograms
        planes = []
        monkeypatch.setattr(mm, "_region_histograms", lambda sets, *args: (
            planes.append(len(sets[0])) or histograms(sets, *args)))
        tri = load(builtin_document("t2-grid", k=4))
        measure = tri.default_measure()
        mc = MCConfig(seed=3, samples=5000)
        normals = [measure._reduced_normals(apply_map(w, dev.region()))
                   for w in _holonomy_words(tri.holonomy, tri.dim, 1)
                   for dev in tri.developed]
        assert len(normals) == 160
        assert len({u.tobytes() for rows in normals for u in rows}) > 3
        assert mm._union_histogram(normals, 2, mc).tolist() == [
            mc.samples, 0]
        assert planes == [3]
        assert all(measure._exact_value(rows) == 0.0 for rows in normals)
        report = dichotomy_check(tri, measure, mc=mc, word_length=1)
        assert planes == [3]
        assert report.consistent
        assert (report.chart_mass.value, report.chart_mass.std_error,
                report.chart_mass.samples) == (0.0, 0.0, 0)

    def test_union_leaves_out_regions_of_mass_zero(self, monkeypatch):
        # on S^1 the half-circles about three normals 120 degrees apart
        # meet nowhere, so a region of all three has closed-form mass 0
        # though no plane is listed with both signs.  The dead regions come
        # after the live ones and list only their normals, so no merged
        # plane changes its stored row: the pruned union counts the same
        # hits from the same readings
        mm = measure_module
        m = RoundMeasure(1)
        turn = np.random.default_rng(21).uniform(0.0, 2.0 * math.pi)
        n = [np.array([math.cos(turn + a), math.sin(turn + a)])
             for a in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)]
        live = [Region([n[0], n[1]], 1), Region([n[1], n[2]], 1)]
        dead = [Region(n, 1), Region([-n[2], -n[0], -n[1]], 1)]
        assert [m.eval(r).value for r in dead] == [0.0, 0.0]
        assert all(m.eval(r).value > 0.0 for r in live)
        mc = MCConfig(seed=5, samples=5000)
        everything = mm._union_histogram(
            [r.normals for r in live + dead], 2,
            derive_mc(mc, mm._ROLE_UNION))
        est = m.union_mass(live + dead, mc)
        assert 0 < everything[1] < mc.samples
        assert m._union_mass(live + dead, mc).histograms[0].tolist(
            ) == everything.tolist()
        assert est == m.union_mass(live, mc)
        # with no live region there is nothing to draw; no regions at all
        # keep the zero of a draw
        monkeypatch.setattr(mm, "_region_histograms", None)
        est = m.union_mass(dead, mc)
        assert (est.value, est.std_error, est.samples) == (0.0, 0.0, 0)
        assert m.union_mass([], mc).samples == mc.samples

    @pytest.mark.parametrize("picks, covered", [
        ([(1, 2), (1, -2)], True),     # the four quadrants of two planes
        ([(3,), (1, 2, -4)], True),    # a half-space and its antipode
        ([(1, 2), (3, 4)], False),     # sum 2^-h is 1, + - + - is missed
        ([(1, 2), (2, 3), (1, -3)], False)],
        ids=["quadrants", "half-space", "two-lunes", "three-lunes"])
    def test_union_draws_only_when_its_needs_miss_a_code(self, monkeypatch,
                                                        picks, covered):
        # regions of signed coordinate planes of R^4, plane j + 1 being
        # positive where x_j > 0
        mm = measure_module
        histograms = mm._region_histograms
        calls = []
        monkeypatch.setattr(mm, "_region_histograms", lambda *args: (
            calls.append(args) or histograms(*args)))
        regions = [Region([np.sign(j) * np.eye(4)[abs(j) - 1]
                           for j in signed], 3) for signed in picks]
        mc = MCConfig(seed=2, samples=3000)
        est = RoundMeasure(3, monte_carlo=True).union_mass(regions, mc)
        assert est.samples == mc.samples
        assert (not calls) == covered
        assert (est.value == 2.0) == covered

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_decided_union_is_the_histogram_its_needs_sample(self, data):
        # random regions of random and coordinate planes in dims 1-4, and
        # every orthant of some coordinate planes (such needs meet every
        # code, so no draw is made); a union decided without a draw gives
        # the (miss, hit) histogram _region_histograms samples for its needs
        mm = measure_module
        width = data.draw(st.integers(2, 5), "width")
        k = data.draw(st.integers(0, 4), "random planes")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32), "rng"))
        planes = np.concatenate([rng.standard_normal((k, width)),
                                 np.eye(width)])
        signed = st.tuples(st.integers(0, len(planes) - 1), st.booleans())
        regions = [[-planes[j] if neg else planes[j]
                    for j, neg in picks]
                   for picks in data.draw(st.lists(st.lists(
                       signed, min_size=1, max_size=4), max_size=6),
                       "regions")]
        orthants = data.draw(st.lists(st.integers(k, len(planes) - 1),
                                      unique=True, max_size=3), "orthants")
        regions += [[planes[j] if bit & (1 << i) else -planes[j]
                     for i, j in enumerate(orthants)]
                    for bit in range(1 << len(orthants))]
        normal_sets = [Region(r, width - 1).normals for r in regions if r]
        mc = MCConfig(seed=data.draw(st.integers(0, 99), "seed"),
                      samples=data.draw(st.sampled_from([1, 700, 2049]),
                                        "samples"))
        histograms = mm._region_histograms
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mm, "_region_histograms", lambda *args: (
                calls.append(args) or histograms(*args)))
            decided = mm._union_histogram(normal_sets, width, mc)
            if orthants:
                assert calls == []
            patch.setattr(mm, "_covers", lambda needs, k: False)
            sampled = mm._union_histogram(normal_sets, width, mc)
        assert decided.tolist() == sampled.tolist()

    @pytest.mark.parametrize("calls", [1, 2])
    @pytest.mark.parametrize("samples", [1, 2047, 2049, 32769, 131073,
                                         300001])
    def test_popcount_tree_counts_like_the_code_bincount(self, calls,
                                                         samples):
        # groups of 1-6 planes per region, some sharing a stack, next to a
        # 7-plane one that counts three bins, against the plane-by-plane
        # reference.  With calls = 2 each histogram is taken twice in turn:
        # the row and sign buffers are new to each call (np.empty, possibly
        # recycled memory), so nothing of one call may reach the next
        mm = measure_module
        rng = np.random.default_rng(samples)
        mc = MCConfig(seed=samples, samples=samples)
        for width in range(2, 8):
            regions = [Region(rng.standard_normal((h, width)), width - 1)
                       for h in (1, 2, 2, 3, 7, 4, 4, 4, 5, 6, 6, 3)]
            bins = [1 << len(r.normals) if len(r.normals) <= mm._TREE_BITS
                    else 3 for r in regions]
            want = self._plane_by_plane_counts(regions, mc, bins)
            for _ in range(calls):
                got = mm._region_histograms([r.normals for r in regions],
                                            width, mc)
                assert [len(g) for g in got] == bins
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)
                    assert g.sum() == samples

    @pytest.mark.parametrize("leaf_words", [1, 336])
    @pytest.mark.parametrize("samples", [1000, 2999, 4321])
    def test_counting_passes_split_blocks_like_the_code_bincount(
            self, monkeypatch, leaf_words, samples):
        # eight 3-plane regions (56 slot rows, batches of 2 chunks) and one
        # 6-plane region (63 slot rows, batches of 10 chunks) in blocks of
        # 16 chunks of 64 rows, the last one short.  _LEAF_WORDS = 336
        # passes 6 and 10 chunks at a time, 1 one batch at a time, so every
        # block is counted in several passes
        mm = measure_module
        monkeypatch.setattr(mm, "_LEAF_WORDS", leaf_words)
        monkeypatch.setattr(mm, "_BLOCK", 1000)
        monkeypatch.setattr(mm, "_CHUNK", 64)
        rng = np.random.default_rng(samples)
        regions = [Region(rng.standard_normal((h, 3)), 2)
                   for h in (3,) * 8 + (6,)]
        mc = MCConfig(seed=samples, samples=samples)
        want = self._plane_by_plane_counts(regions, mc, [8] * 8 + [64])
        got = mm._region_histograms([r.normals for r in regions], 3, mc)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
            assert g.sum() == samples

    def test_octahedron_histograms_stay_within_their_workspace(self):
        # the draw, the rows, the product and its signs, the packed signs
        # and the popcount bytes of one call: 2.1 MB, against 1.2 MB with
        # fresh temporaries per batch and 2.5 MB with a block per pass
        octants = [np.diag(signs).astype(float)
                   for signs in itertools.product((1.0, -1.0), repeat=3)]
        mc = MCConfig(seed=1, samples=1_000_000)
        # a first call imports numpy.random, which would count 0.75 MB
        measure_module._region_histograms(octants, 3, MCConfig(samples=1))
        tracemalloc.start()
        try:
            got = measure_module._region_histograms(octants, 3, mc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [int(g.sum()) for g in got] == [mc.samples] * 8
        assert peak < 2.5e6

    def test_partial_union_std_error_calibrated(self):
        # {x>0, y>0} and {y>0, z>0} with their antipodes miss the octants
        # {x<0, y>0, z<0} and {x>0, y<0, z>0}: exact union mass 1.5
        m = RoundMeasure(2, monte_carlo=True)
        regions = [region(2, [1, 0, 0], [0, 1, 0]),
                   region(2, [0, 1, 0], [0, 0, 1])]
        ests = [m.union_mass(regions, MCConfig(seed=s, samples=20_000))
                for s in range(100)]
        values = [e.value for e in ests]
        scatter = np.std(values, ddof=1)
        reported = np.mean([e.std_error for e in ests])
        assert reported / 2 <= scatter <= reported * 2
        assert abs(np.mean(values) - 1.5) <= 4 * reported / 10

    def test_hemisphere_std_error_calibrated(self):
        m = RoundMeasure(2, monte_carlo=True)
        r = region(2, [0, 0, 1])
        ests = [m.eval(r, MCConfig(seed=s, samples=20_000))
                for s in range(100)]
        scatter = np.std([e.value for e in ests], ddof=1)
        reported = np.mean([e.std_error for e in ests])
        assert reported / 2 <= scatter <= reported * 2


def _row_major_haar(rng, shape, width):
    """_haar_rotations as it was written row by row on the (..., width,
    width) block, kept as the reference for the contiguous-row layout."""
    q = rng.standard_normal(tuple(shape) + (width, width))
    for j in range(width):
        row = q[..., j, :]
        for k in range(j):
            done = q[..., k, :]
            row -= (done * row).sum(axis=-1, keepdims=True) * done
        row /= np.sqrt((row * row).sum(axis=-1, keepdims=True))
    return q


class TestHaarRotations:
    SHAPES = pytest.mark.parametrize("shape", [(256, 1), (64, 8), (2, 3)])

    @SHAPES
    @pytest.mark.parametrize("width", range(1, 8))
    def test_matches_row_major_gram_schmidt_bit_for_bit(self, shape, width):
        q = measure_module._haar_rotations(np.random.default_rng(width),
                                           shape, width)
        want = _row_major_haar(np.random.default_rng(width), shape, width)
        assert q.shape == want.shape == shape + (width, width)
        assert np.array_equal(q, want)
        assert np.allclose(q @ np.swapaxes(q, -1, -2), np.eye(width))

    @SHAPES
    @pytest.mark.parametrize("width", [8, 14])
    def test_wide_rotations_differ_from_row_major_by_rounding(self, shape,
                                                              width):
        # numpy adds a contiguous row of 8 or more pairwise
        q = measure_module._haar_rotations(np.random.default_rng(width),
                                           shape, width)
        want = _row_major_haar(np.random.default_rng(width), shape, width)
        assert np.allclose(q, want, rtol=0.0, atol=1e-10)
        assert np.allclose(q @ np.swapaxes(q, -1, -2), np.eye(width))


class _GridGenerator:
    """Stands in for a generator: its raw words hold the given uniforms
    for the radii and again for the angles, so cell k pairs with cell k.
    Uniform k 2^-24 is the 32-bit output k 2^8 + 255, whose low byte the
    draw must drop."""

    def __init__(self, cells):
        self.cells = cells
        self.bit_generator = self

    def random_raw(self, size):
        assert size == len(self.cells)
        k = (self.cells * np.float32(2.0 ** 24)).astype(np.uint32)
        outputs = np.concatenate([k, k]) << 8 | 255
        return outputs.view(np.uint64)


def _uniform_box_muller(rng, count, width):
    """_gaussian_draw as it was written on rng.random's float32 uniforms,
    kept as the reference for the draw from raw words."""
    half = -(-count * width // 2)
    u = np.maximum(rng.random(2 * half, dtype=np.float32), 2.0 ** -25)
    radius = np.sqrt(np.log(u[:half]) * -2.0)
    angle = u[half:] * (2.0 * math.pi)
    x = np.concatenate([np.cos(angle) * radius, np.sin(angle) * radius])
    return x[:count * width].reshape(count, width)


class TestGaussianDraw:
    def test_generator_returns_the_2_to_minus_24_grid(self):
        u = np.random.default_rng(3).random(1 << 20, dtype=np.float32)
        k = u.astype(np.float64) * 2 ** 24
        assert np.array_equal(k, np.floor(k)) and k.max() < 2 ** 24

    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 40 + 3])
    @pytest.mark.parametrize("n", [1, 2, 5, 98304, 98305])
    def test_raw_words_are_the_float32_uniforms(self, seed, n):
        # numpy's float32 uniform is (32-bit output >> 8) 2^-24, and PCG64
        # hands out the low half of a 64-bit word before its high half; if
        # a numpy release changes either, the draw's stream changes
        words = np.random.default_rng(seed).bit_generator.random_raw(
            -(-n // 2))
        u = (words.view(np.uint32)[:n] >> 8).astype(np.float32) * 2.0 ** -24
        want = np.random.default_rng(seed).random(n, dtype=np.float32)
        assert u.dtype == want.dtype and np.array_equal(u, want)

    @pytest.mark.parametrize("width", [1, 2, 3, 5])
    def test_draw_is_box_muller_on_the_generator_uniforms(self, width):
        draw = measure_module._gaussian_draw(width)
        for seed, count in [(3, 1), (4, 2), (5, 1001), (6, 32768), (7, 7)]:
            got = draw(np.random.default_rng(seed), count)
            want = _uniform_box_muller(np.random.default_rng(seed), count,
                                       width)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_no_uniform_gives_a_zero_coordinate(self):
        # every uniform the generator can return, as radius and as angle:
        # r cos(theta) and r sin(theta) are products of float32 factors
        # far above the underflow threshold, so each is 0 only if r,
        # cos(theta) or sin(theta) is
        draw = measure_module._gaussian_draw(2)
        step = 1 << 21
        for first in range(0, 1 << 24, step):
            cells = (np.arange(first, first + step, dtype=np.float32)
                     * np.float32(2.0 ** -24))
            x = draw(_GridGenerator(cells), step).reshape(2, step)
            assert np.all(np.isfinite(x))
            assert np.all(np.hypot(x[0], x[1]) > 0.0)      # r > 0
            assert np.all(x[0] != 0.0)                      # cos theta != 0
            assert np.all(x[1] != 0.0)                      # sin theta != 0

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_orthants_and_marginals_follow_the_gaussian_law(self, width):
        draw = measure_module._gaussian_draw(width)
        rng = np.random.default_rng(100 + width)
        count = (1 << 17) + 1          # odd count x odd width: odd total
        orthants = np.zeros(1 << width, dtype=np.int64)
        cuts = np.array([-2.0, -1.0, -0.3, 0.3, 1.0, 2.0])
        below = np.zeros(len(cuts), dtype=np.int64)
        pair_moments = np.zeros(2)   # sums of a b and (a b)^2
        blocks = -(-5_000_000 // count)
        for _ in range(blocks):
            x = draw(rng, count)
            assert x.shape == (count, width) and x.dtype == np.float32
            codes = ((x > 0) << np.arange(width)).sum(axis=1)
            orthants += np.bincount(codes, minlength=1 << width)
            below += (x[:, 0, None] < cuts).sum(axis=0)
            # the cos and sin coordinates of one uniform pair lie half a
            # block apart, and must be uncorrelated
            flat = x.ravel().astype(np.float64)
            half = -(-len(flat) // 2)
            ab = flat[:len(flat) - half] * flat[half:]
            pair_moments += ab.sum(), (ab * ab).sum()
        n = blocks * count
        p = 2.0 ** -width
        z = (orthants - n * p) / math.sqrt(n * p * (1 - p))
        assert np.all(np.abs(z) < 4.0)
        phi = np.array([0.5 * (1 + math.erf(c / math.sqrt(2))) for c in cuts])
        z = (below - n * phi) / np.sqrt(n * phi * (1 - phi))
        assert np.all(np.abs(z) < 4.0)
        assert abs(pair_moments[0]) < 4.0 * math.sqrt(pair_moments[1])

    def test_same_seed_and_count_give_the_same_bits(self):
        draw = measure_module._gaussian_draw(3)
        a = draw(np.random.default_rng(7), 1001)
        b = draw(np.random.default_rng(7), 1001)
        assert a.shape == (1001, 3) and a.dtype == np.float32
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != draw(np.random.default_rng(8), 1001).tobytes()


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

    def test_union_names_the_nearest_plane_of_the_first_region_on_it(self):
        m = AtomicMeasure.dirac([0.0, 0.0, 1.0])
        # the first region neither holds the atom nor lies on it
        regions = [region(2, [0, 0.6, 0.8], [0, 0.6, -0.8]),
                   region(2, [1, 0, 1e-13], [0, 1, 0], [0.6, 0, 0.8]),
                   region(2, [1, 1, 0])]
        with pytest.raises(BoundaryAtom) as info:
            m.union_mass(regions)
        assert abs(info.value.atom[2]) == 1.0
        # [0, 1, 0] holds the atom exactly, [1, 0, 1e-13] within ATOM_TOL
        assert np.array_equal(info.value.normal, [0.0, 1.0, 0.0])


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

    def test_union_raises_on_a_plane_containing_the_support(self):
        # a union reads the same reduced normals as eval
        with pytest.raises(BoundaryAtom):
            self.inf.union_mass([region(2, [0, 0, 1], [1, 0, 0])],
                                MCConfig(seed=1, samples=1000))

    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            SubsphereUniform(np.array([[1.0, 0, 0], [1.0, 1.0, 0]]))
        ok = SubsphereUniform.from_spanning(np.array([[2.0, 0, 0],
                                                      [3.0, 4.0, 0]]))
        assert ok.subsphere_dim == 1

    def test_from_spanning_keeps_a_row_after_a_dependent_one(self):
        m = SubsphereUniform.from_spanning([[1.0, 0, 0], [2.0, 0, 0],
                                            [0, 1.0, 0]])
        assert m.subsphere_dim == 1
        # the basis spans e1 and e2: its projector is diag(1, 1, 0)
        assert np.allclose(m.basis.T @ m.basis, np.diag([1.0, 1.0, 0.0]))

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

    def test_restricted_subspace_atom_on_a_plane_names_atom_and_plane(self):
        base = AtomicMeasure([([1, 0, 0], 1.0), ([0, 0, 1], 3.0)])
        restr = RestrictedNormalized(base,
                                     subspace=np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(BoundaryAtom) as info:
            restr.eval(region(2, [0.6, 0.0, 0.8], [0.0, 1.0, 0.0]))
        assert np.array_equal(np.abs(info.value.atom), [0.0, 0.0, 1.0])
        assert np.array_equal(info.value.normal, [0.0, 1.0, 0.0])

    def test_region_restriction_keeps_only_atoms_of_a_and_minus_a(self):
        # [0, 0, 1] lies on the plane y = 0, yet the region's first plane
        # excludes it from A and its second from -A: it carries no mass
        base = AtomicMeasure([([0, 0, 1], 1.0), ([1, 0.3, 0.2], 1.0)])
        restr = RestrictedNormalized(base, region=region(
            2, [1, 0, -0.2], [0, 1, 0.2]))
        lines = restr.support_subspaces()
        assert len(lines) == 1
        assert np.allclose(np.abs(lines[0][0]), normalized([1, 0.3, 0.2]))
        assert restr.eval(region(2, [0, 1, 0])).value == 1.0
        with pytest.raises(BoundaryAtom):    # the atom in A, on a plane
            restr.eval(region(2, [0, 0.2, -0.3]))

    def test_subspace_restriction_of_a_restriction_is_unsupported(self):
        inner = RestrictedNormalized(AtomicMeasure.dirac([0.0, 0.0, 1.0]),
                                     region=region(2, [0, 0.6, 0.8]))
        restr = RestrictedNormalized(inner,
                                     subspace=np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(UnsupportedMeasure):
            restr.eval(whole_sphere(2))

    def test_subspace_restriction_of_atoms_uniform_and_mixture(self):
        # V = span(e1, e2) holds the atoms [1, 0.3, 0] and [0.2, 1, 0], of
        # mass 1.5 in all; the quadrant holds half of each, 0.75
        v = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        atoms = AtomicMeasure([([1, 0.3, 0], 1.0), ([0, 0, 1], 0.5),
                               ([0.2, 1, 0], 0.5)])
        quadrant = region(2, [1, 0, 0], [0, 1, 0])
        cap = region(2, [0, 0, 1], [1, 1, 0.1])
        on_v = RestrictedNormalized(atoms, subspace=v)
        assert on_v.eval(quadrant).value == 1.0
        assert on_v.union_mass([quadrant, cap]).value == 2.0
        whole = RestrictedNormalized(SubsphereUniform(v), subspace=np.eye(3))
        assert whole.eval(quadrant).value == 0.5
        # 2 (0.5 * 0.75 + 0.5 * 0.5) / (0.5 * 1.5 + 0.5 * 2)
        mixed = RestrictedNormalized(
            Mixture([(0.5, atoms), (0.5, SubsphereUniform(v))]), subspace=v)
        assert mixed.eval(quadrant).value == 5 / 7

    def test_subspace_restriction_keeps_the_supports_inside_v(self):
        # of the three atoms' lines and two planes, the lines through
        # [1, 0.3, 0] and [0.2, 1, 0] and the plane V itself lie in V
        v = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        atoms = AtomicMeasure([([1, 0.3, 0], 1.0), ([0, 0, 1], 0.5),
                               ([0.2, 1, 0], 0.5)])
        base = Mixture([(0.5, atoms), (0.25, SubsphereUniform(v)),
                        (0.25, SubsphereUniform(np.eye(3)[1:]))])
        kept = RestrictedNormalized(base, subspace=v).support_subspaces()
        subs = base.support_subspaces()
        assert len(subs) == 5
        assert [len(sub) for sub in kept] == [1, 1, 2]
        assert all(any(np.array_equal(sub, s) for s in subs) for sub in kept)
        assert np.allclose(np.abs(kept[0][0]), normalized([1, 0.3, 0]))
        assert np.allclose(np.abs(kept[1][0]), normalized([0.2, 1, 0]))
        assert np.array_equal(kept[2], v)

    def test_mixture_union_weighs_its_component_unions(self):
        regions = [region(2, [1, 0, 0], [0, 1, 0]),
                   region(2, [0, 0, 1], [1, 1, 0.1])]
        atoms = AtomicMeasure([([1, 0.3, 0.2], 1.0), ([0, 0, 1], 1.0)])
        mix = Mixture([(0.5, RoundMeasure(2)), (0.5, atoms)])
        union = mix.union_mass(regions, MCConfig(seed=3, samples=200_000))
        assert atoms.union_mass(regions).value == 2.0
        round_union = RoundMeasure(2).union_mass(
            regions, MCConfig(seed=4, samples=200_000))
        gap = union.value - (0.5 * 2.0 + 0.5 * round_union.value)
        assert union.std_error > 0.0
        assert abs(gap) <= 4.0 * math.hypot(union.std_error,
                                            0.5 * round_union.std_error)

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

    def test_repeated_element_counts_once(self):
        # [I, I, g] is the group {I, g}: each element weighs 1/2
        g = ProjectiveMap(np.diag([-1.0, 1.0, 1.0]))
        identity = ProjectiveMap.identity(2)
        out = average_over_group(AtomicMeasure.dirac([1, 0.3, 0.2]),
                                 [identity, identity, g])
        assert len(out.points) == 4
        assert np.allclose(out.weights, 0.5)
        regions = [random_region(2, np.random.default_rng(s), 2)
                   for s in range(20)]
        report = check_invariance(out, [g], regions)
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

    def test_repeated_point_counts_once(self):
        p, q = [1.0, 1.0, 1.0], [1.0, -2.0, 1.5]
        m = FiniteOrbitMeasure([p, p, q])
        assert len(m.orbit) == 2
        assert np.allclose(m.weights, 0.5)

    def test_irrational_rotation_overflows(self):
        with pytest.raises(OrbitOverflow) as overflow:
            finite_orbit_measure([1.0, 0, 0], [rotation_z(1.0)], 100)
        assert overflow.value.size == 101

    def test_large_orbit_in_discovery_order(self):
        n = 3000
        m = finite_orbit_measure([0.6, 0, 0.8], [rotation_z(2 * np.pi / n)], n)
        assert len(m.orbit) == n
        # breadth first: seed, g seed, g^-1 seed, g^2 seed, ...; the two
        # half turns meet, so the last point is the seed turned by pi
        turns = [(i + 1) // 2 * (1 if i % 2 else -1) for i in range(n)]
        expected = [[0.6 * np.cos(2 * np.pi * k / n),
                     0.6 * np.sin(2 * np.pi * k / n), 0.8] for k in turns]
        assert np.allclose(m.orbit, expected, atol=1e-9)
        with pytest.raises(OrbitOverflow) as overflow:
            finite_orbit_measure([0.6, 0, 0.8], [rotation_z(2 * np.pi / n)],
                                 n - 1)
        assert overflow.value.size == n


class TestEstimateAlgebra:
    # sum and difference of a batch's two estimates
    PLUS_MINUS = IndexMap(2, [0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 1, -1])

    def test_exact_plus_minus_exact_stays_exact(self):
        both = Estimates([0.75, 0.5]).mapped(self.PLUS_MINUS)
        assert list(both) == [MeasureEstimate(1.25), MeasureEstimate(0.25)]
        assert all(est.exact for est in both)

    def test_errors_add_by_hypot_and_samples_add(self):
        # masses 2 * 30 / 100 and 2 * 20 / 50 of two independent histograms
        both = Estimates.masses([0.0, 0.0], [0, 1], [np.array([70, 30]),
                                                     np.array([30, 20])])
        errors = [2 * math.sqrt(0.3 * 0.7 / 99), 2 * math.sqrt(0.4 * 0.6 / 49)]
        for est, error in zip(both, errors):
            assert math.isclose(est.std_error, error)
        for est, value in zip(both.mapped(self.PLUS_MINUS), (1.4, -0.2)):
            assert math.isclose(est.value, value)
            assert math.isclose(est.std_error, math.hypot(*errors))
            assert est.samples == 150
        mixed = Estimates.masses([0.0, 0.5], [0], [np.array([70, 30])])
        total = mixed.mapped(self.PLUS_MINUS)[0]
        assert total.std_error == mixed[0].std_error
        assert total.samples == 100

    def test_scalar_multiple_and_integer_division(self):
        a = Estimates.masses([0.0], [0], [np.array([10, 30])])    # 1.5
        error = a[0].std_error
        assert a.mapped(IndexMap(1, [0], [0], -2))[0] == MeasureEstimate(
            -3.0, 2 * error, 40)
        third = (a / np.array([3]))[0]
        assert math.isclose(third.value, 0.5)
        assert math.isclose(third.std_error, error / 3)
        assert third.samples == 40
        assert (1.0 - a)[0].value == -0.5 and (a - 1.0)[0].value == 0.5

    def test_shared_histogram_adds_coefficients(self):
        m = RoundMeasure(2, monte_carlo=True)
        batch = m.eval_many([region(2, [1, 0, 0], [0, 1, 0])],
                            MCConfig(seed=2, samples=20_000))
        est, = batch
        doubled = (batch + batch)[0]
        assert doubled.value == 2 * est.value
        assert doubled.samples == est.samples == 20_000
        assert math.isclose(doubled.std_error, 2 * est.std_error)
        zero = batch.mapped(IndexMap(1, [0, 0], [0, 0], [1, -1]))[0]
        assert zero.value == 0.0 and zero.std_error == 0.0

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_shares_pair_each_mask_with_its_supersets_in_order(self, bits):
        size = 1 << bits
        hists = [np.arange(size) + 1 for _ in range(2)]
        batch = Estimates.masses([0.0, 0.0, 0.0], [0, 2], hists)
        rng = np.random.default_rng(bits)
        masks = list(rng.integers(0, size, 2 * size)) + [size - 1, 0]
        shares = batch.shares([2, 0], masks)
        # the 4^bits filter that shares replaced
        column = np.array(masks)[:, None]
        mask, code = np.nonzero((np.arange(size) & column) == column)
        rows = np.concatenate([mask, len(masks) + mask])
        assert np.array_equal(shares.rows, rows)
        assert np.array_equal(shares.cols, np.concatenate([size + code,
                                                           code]))
        assert np.array_equal(shares.coef, np.ones(len(rows)))
        every = batch.shares([0], range(size))
        assert len(every.rows) == 3 ** bits

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


    def test_one_batch_for_every_region_and_image(self, monkeypatch):
        m = RoundMeasure(2, monte_carlo=True)
        batches = []
        real = m._eval_many
        monkeypatch.setattr(m, "_eval_many", lambda regions, mc: (
            batches.append(len(regions)) or real(regions, mc)))
        rng = np.random.default_rng(3)
        regions = [random_region(2, rng, k) for k in (1, 2, 3)]
        report = check_invariance(m, [rotation_z(0.9), rotation_x(0.4)],
                                  regions, MCConfig(seed=1, samples=2000))
        assert batches == [9]
        assert [(e.region_index, e.generator_index)
                for e in report.entries] == [(r, g) for r in range(3)
                                             for g in range(2)]

    def test_batched_error_bars_calibrated(self):
        # a region and its images read independent rotations, so the
        # discrepancies of an invariant measure are standard normal in
        # units of their combined error
        m = RoundMeasure(2, monte_carlo=True)
        rng = np.random.default_rng(41)
        regions = [random_region(2, rng, k) for k in (1, 2, 3)]
        z = [e.discrepancy / e.combined_std_error
             for seed in range(40)
             for e in check_invariance(
                 m, [rotation_z(0.9), rotation_x(0.4)], regions,
                 MCConfig(seed=seed, samples=20_000)).entries]
        assert 0.8 <= math.sqrt(np.mean(np.square(z))) <= 1.2

    def test_boundary_atom_names_the_first_region_on_it(self):
        m = AtomicMeasure.dirac([0, 0, 1.0])
        regions = [region(2, [1, 0, 0.5]), region(2, [0, 1, 0.2]),
                   region(2, [1, 0, 0]), region(2, [0, 1, 0])]
        with pytest.raises(BoundaryAtom) as info:
            check_invariance(m, [rotation_z(0.3)], regions)
        assert info.value.face == ("region", 2)


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

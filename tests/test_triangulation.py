from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from gbmeasure import (AtomicMeasure, BoundaryAtom, DegenerateSimplex,
                       InconsistentDichotomy, MCConfig, Mixture,
                       NotAManifold, Region, RestrictedNormalized,
                       RoundMeasure, SchemaError, SubsphereUniform,
                       defect_sums, dichotomy_check, euler_combinatorial,
                       gb_report, load, transversality_check)
from gbmeasure.documents import BUILTIN_DOCUMENTS, builtin_document
from gbmeasure import measure as measure_module
from gbmeasure import simplex as simplex_module
from gbmeasure.geom import face_region
from gbmeasure.measure import derive_mc
from gbmeasure.simplex import cut_sets
from gbmeasure.triangulation import Incidence, angle_table, incidence_angles


def octahedron():
    return load(builtin_document("s2-octahedron"))


def _angle_of(tri, table):
    """angle_of(top, cut) reading an angle_table, which holds each top's
    2^(n+1) cut sets in cut_sets order."""
    cuts = list(cut_sets(tri.dim))
    return lambda t, c: table[t * len(cuts) + cuts.index(c)]


def _reference_std_errors(tri, measure, mc):
    """Standard errors of every link sum, defect and k, of sum_defects and
    of mu by brute force: each output's per-code coefficients on each
    sampled histogram, summed from the incidences, and the centered
    variance of their sample mean.  measure is round-mc, read from code
    histograms of the tops' whole regions, or one read region by region,
    the full cut sets from the first eval_many call and the rest from the
    second: a mixture of round-mc and an exact measure with weights w,
    1 - w, whose mass is w times twice the last code's share of one
    histogram, or round-mc restricted to a region A, whose mass 2 n / d
    reads the histograms of R∩A and R∩-A and those of A and -A, which
    every region of one eval_many call shares, n and d twice the sums of
    their last codes' shares, by the delta method: coefficients 2 / d on
    n and -2 n / d^2 on d."""
    n, full = tri.dim, tuple(range(tri.dim + 1))
    sampled = RoundMeasure(n, monte_carlo=True)
    angle = {}      # (top, cut) -> {id: (histogram, coefficients)}

    def last(h, scale):
        coef = np.zeros(len(h))
        coef[-1] = scale
        return coef

    def masses(regions, mc):
        """{id: (histogram, coefficients)} of each region's mass."""
        if isinstance(measure, Mixture):
            w = measure.components[0][0]
            return [{} if h is None else {id(h): (h, last(h, 2.0 * w))}
                    for h in sampled.eval_many(regions, derive_mc(
                        mc, measure_module._ROLE_COMPONENT, 0)).histograms]
        a, neg_a = measure._region, measure._region.antipodal()
        shared, *hists = sampled.eval_many(
            [a, neg_a] + [r.intersect(b) for r in regions
                          for b in (a, neg_a)],
            derive_mc(mc, measure_module._ROLE_RESTRICT)).histograms
        shared, hists = (shared, hists[0]), iter(hists[1:])
        den = 2.0 * sum(h[-1] / h.sum() for h in shared)
        out = []
        for pair in zip(hists, hists):
            num = 2.0 * sum(h[-1] / h.sum() for h in pair)
            out.append({id(h): (h, last(h, 2.0 * scale)) for h, scale in zip(
                pair + shared, [2.0 / den] * 2 + [-2.0 * num / den ** 2] * 2)})
        return out

    if isinstance(measure, RoundMeasure):
        tops = sampled.eval_many([face_region(dev, full)
                                  for dev in tri.developed], mc).histograms
        for t, h in enumerate(tops):
            for cut in cut_sets(n):
                mask = sum(1 << i for i in cut)
                coef = np.array([float(c & mask == mask)
                                 for c in range(len(h))])
                angle[(t, cut)] = {} if not cut else {id(h): (h, coef)}
    else:
        cuts = list(cut_sets(n, n))
        rest = iter(masses([face_region(dev, cut) for dev in tri.developed
                            for cut in cuts], derive_mc(
                                mc, simplex_module._ROLE_SIMPLEX)))
        tops = masses([face_region(dev, full) for dev in tri.developed], mc)
        for t, top in enumerate(tops):
            for cut in cuts + [full]:
                terms = top if cut == full else next(rest)
                angle[(t, cut)] = {key: (h, 0.5 * coef)
                                   for key, (h, coef) in terms.items()}

    def add(into, scale, terms):
        for key, (h, coef) in terms.items():
            into.setdefault(key, (h, np.zeros(len(h))))[1][:] += (
                scale * coef)

    link, k, defect, mu, total = {}, {}, {}, {}, {}
    for rec in tri.incidences:
        add(link.setdefault((rec.dim, rec.face), {}), 1.0,
            angle[(rec.top, rec.cut)])
    for t in range(len(tri.tops)):
        for cut in cut_sets(n, n):
            add(k.setdefault(t, {}), (-1.0) ** (n - len(cut)),
                angle[(t, cut)])
        add(mu, 2.0, angle[(t, full)])
    for r, faces in enumerate(tri.faces):
        for i, face in enumerate(faces):
            for v in face:
                add(defect.setdefault(v, {}), -(-1.0) ** r / (r + 1),
                    link[(r, i)])
    for terms in defect.values():
        add(total, 1.0, terms)

    def std(terms):
        var = 0.0
        for h, coef in terms.values():
            m = h.sum()
            mean = h @ coef / m
            var += h @ (coef - mean) ** 2 / ((m - 1) * m)
        return np.sqrt(var)
    return ({("link",) + key: std(t) for key, t in link.items()}
            | {("defect", v): std(t) for v, t in defect.items()}
            | {("k", t): std(terms) for t, terms in k.items()}
            | {("sum_defects",): std(total), ("mu",): std(mu)})


def _batched_measures():
    """A mixture of two sampled round measures and a sampled round measure
    restricted to a hemisphere: each answers a whole angle table through
    one eval_many call per component or base."""
    sampled = RoundMeasure(2, monte_carlo=True)
    return [Mixture([(0.5, sampled), (0.5, sampled)]),
            RestrictedNormalized(sampled, region=Region(
                [[0.0, 0.6, 0.8]], 2))]


class TestLoad:
    def test_octahedron_counts(self):
        tri = octahedron()
        assert [len(f) for f in tri.faces] == [6, 12, 8]
        assert euler_combinatorial(tri) == 2

    def test_icosahedral_counts(self):
        tri = load(builtin_document("rp2-icosahedral"))
        assert [len(f) for f in tri.faces] == [6, 15, 10]
        assert euler_combinatorial(tri) == 1

    def test_grid_counts(self):
        for k in (2, 3, 4):
            tri = load(builtin_document("t2-grid", k=k))
            assert [len(f) for f in tri.faces] == [k * k, 3 * k * k,
                                                   2 * k * k]
            assert euler_combinatorial(tri) == 0

    def test_missing_keys(self):
        with pytest.raises(SchemaError):
            load({"dim": 2})

    def test_not_a_manifold(self):
        doc = builtin_document("s2-octahedron")
        doc["faces"]["2"] = doc["faces"]["2"] + [doc["faces"]["2"][0]]
        doc["developed"] = doc["developed"] + [doc["developed"][0]]
        doc.pop("pairings")
        with pytest.raises(NotAManifold):
            load(doc)

    def test_face_in_no_top_simplex(self):
        doc = builtin_document("s2-octahedron")
        doc["vertices"] += 1
        doc["faces"]["0"].append([doc["vertices"] - 1])
        with pytest.raises(NotAManifold, match="lies in no top simplex"):
            load(doc)

    def test_degenerate_development(self):
        doc = builtin_document("s2-octahedron")
        doc["developed"][0] = [[1, 0, 0], [0, 1, 0], [0.5, 0.5, 0]]
        with pytest.raises(DegenerateSimplex):
            load(doc)

    def test_unmatched_subtuple(self):
        doc = builtin_document("s2-octahedron")
        doc["faces"]["1"] = doc["faces"]["1"][:-1]
        doc.pop("pairings")
        with pytest.raises(SchemaError):
            load(doc)


class TestRearrangement:
    def random_complex(self, rng, max_tris=50):
        n_v = int(rng.integers(3, 9))
        n_e = int(rng.integers(3, 15))
        n_t = int(rng.integers(1, max_tris + 1))
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
                r = 2 - size
                for cut in combinations(range(3), size):
                    incidences.append(Incidence(
                        t, cut, r, int(rng.integers(0, len(faces[r]))), ()))
            for cut in [c for s in range(4)
                        for c in combinations(range(3), s)]:
                table[(t, cut)] = Fraction(int(rng.integers(-60, 60)),
                                           int(rng.integers(1, 50)))
        return faces, incidences, table

    def test_identity_exact_in_rationals(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            faces, inc, table = self.random_complex(rng)
            _, _, _, chi, residual = defect_sums(
                faces, inc, lambda t, c: table[(t, c)], one=Fraction(1))
            assert residual == 0

    def test_float_residual_small_for_real_document(self):
        tri = load(builtin_document("t2-grid", k=3))
        rep = gb_report(tri, tri.default_measure())
        assert abs(rep.rearrangement_residual) < 1e-12

    @pytest.mark.parametrize("name", sorted(BUILTIN_DOCUMENTS))
    def test_report_matches_float_defect_sums(self, name):
        tri = load(builtin_document(name))
        mc = MCConfig(seed=4, samples=2000)
        for measure in (tri.default_measure(),
                        RoundMeasure(tri.dim, monte_carlo=True)):
            rep = gb_report(tri, measure, mc)
            angle_of = _angle_of(tri, angle_table(tri, measure, mc))
            link, defects, k, chi, residual = defect_sums(
                tri.faces, tri.incidences, lambda t, c: angle_of(t, c).value)
            assert rep.chi_comb == chi
            assert rep.link_sums.keys() == link.keys()
            assert all(abs(rep.link_sums[key].value - value) <= 1e-12
                       for key, value in link.items())
            assert rep.vertex_defects.keys() == defects.keys()
            assert all(abs(rep.vertex_defects[v].value - value) <= 1e-12
                       for v, value in defects.items())
            assert len(rep.simplex_sums) == len(k)
            assert all(abs(est.value - value) <= 1e-12
                       for est, value in zip(rep.simplex_sums, k))
            assert abs(rep.rearrangement_residual - residual) <= 1e-12


class TestAngleTable:
    def test_octahedron_angles(self):
        tri = octahedron()
        table = angle_table(tri, RoundMeasure(2))
        for rec, est in incidence_angles(tri, table):
            if rec.dim == 0:
                assert abs(est.value - 0.25) < 1e-12
            elif rec.dim == 1:
                assert est.value == 0.5
            else:
                assert est.value == 1.0

    def test_icosahedral_vertex_angle(self):
        tri = load(builtin_document("rp2-icosahedral"))
        table = angle_table(tri, RoundMeasure(2))
        for rec, est in incidence_angles(tri, table):
            if rec.dim == 0:
                assert abs(est.value - 0.2) < 1e-12

    def test_grid_corner_angles_against_infinity_circle(self):
        tri = load(builtin_document("t2-grid", k=2))
        angle_of = _angle_of(tri, angle_table(tri, tri.default_measure()))
        # each triangle is a right triangle: corner angles pi/2, pi/4, pi/4
        for t in range(len(tri.tops)):
            corners = sorted(angle_of(t, cut).value
                             for cut in combinations(range(3), 2))
            expected = [np.pi / 4 / (2 * np.pi), np.pi / 4 / (2 * np.pi),
                        np.pi / 2 / (2 * np.pi)]
            assert np.allclose(corners, expected, atol=1e-12)

    def test_boundary_atom_names_face(self):
        tri = octahedron()
        # an atom on the great circle through e1, e2 (a developed edge)
        bad = AtomicMeasure.dirac(np.array([1.0, 1.0, 0.0]))
        with pytest.raises(BoundaryAtom) as err:
            angle_table(tri, bad)
        assert err.value.face is not None

    def test_monte_carlo_table_draws_each_block_once(self, monkeypatch):
        # every top reads the same sample blocks, each through its rotation
        draws = []
        gaussian = measure_module._gaussian_draw

        def counting(width):
            draw = gaussian(width)

            def counted(rng, count):
                draws.append(count)
                return draw(rng, count)
            return counted

        monkeypatch.setattr(measure_module, "_gaussian_draw", counting)
        monkeypatch.setattr(measure_module, "_BLOCK", 1000)
        tri = octahedron()
        rep = gb_report(tri, RoundMeasure(2, monte_carlo=True),
                        MCConfig(seed=4, samples=2500))
        assert draws == [1000, 1000, 500]
        # each top still counts its 2500 readings once
        assert rep.mu_total.samples == len(tri.tops) * 2500

    @pytest.mark.parametrize("measure, calls", zip(_batched_measures(),
                                                   (4, 2)),
                             ids=["mixture", "restriction"])
    def test_batched_table_draws_each_block_once_per_call(self, monkeypatch,
                                                          measure, calls):
        # two eval_many calls (full cut sets, then the rest), each asking
        # every sampled component or the base once for all regions
        draws = []
        gaussian = measure_module._gaussian_draw

        def counting(width):
            draw = gaussian(width)

            def counted(rng, count):
                draws.append(count)
                return draw(rng, count)
            return counted

        monkeypatch.setattr(measure_module, "_gaussian_draw", counting)
        monkeypatch.setattr(measure_module, "_BLOCK", 1000)
        angle_table(octahedron(), measure, MCConfig(seed=4, samples=2500))
        assert draws == [1000, 1000, 500] * calls

    def test_monte_carlo_table_draws_at_most_the_fresh_rows(self,
                                                            monkeypatch):
        # a block of readings draws at most _ROWS fresh rows and reads
        # them again; samples still counts readings
        draws = []
        gaussian = measure_module._gaussian_draw

        def counting(width):
            draw = gaussian(width)

            def counted(rng, count):
                draws.append(count)
                return draw(rng, count)
            return counted

        monkeypatch.setattr(measure_module, "_gaussian_draw", counting)
        monkeypatch.setattr(measure_module, "_BLOCK", 1000)
        monkeypatch.setattr(measure_module, "_CHUNK", 64)
        monkeypatch.setattr(measure_module, "_ROWS", 256)
        tri = octahedron()
        measure = RoundMeasure(2, monte_carlo=True)
        mc = MCConfig(seed=4, samples=2500)
        table = angle_table(tri, measure, mc)
        assert draws == [256, 256, 256]
        assert {est.samples for est in table if not est.exact} == {2500}
        assert gb_report(tri, measure, mc).mu_total.samples == (
            len(tri.tops) * 2500)


class TestGBReport:
    def test_octahedron_round(self):
        tri = octahedron()
        rep = gb_report(tri, RoundMeasure(2))
        assert rep.chi_comb == 2
        assert abs(rep.mu_total.value - 2.0) < 1e-12
        assert all(abs(d.value) < 1e-12
                   for d in rep.vertex_defects.values())
        assert all(abs(k.value - 0.25) < 1e-12 for k in rep.simplex_sums)
        assert rep.passed

    def test_icosahedral_round(self):
        tri = load(builtin_document("rp2-icosahedral"))
        rep = gb_report(tri, RoundMeasure(2))
        assert rep.chi_comb == 1
        assert abs(rep.mu_total.value - 1.0) < 1e-9
        assert all(abs(k.value - 0.1) < 1e-12 for k in rep.simplex_sums)
        assert rep.passed

    def test_grid_infinity_measure(self):
        for k in (2, 3):
            tri = load(builtin_document("t2-grid", k=k))
            rep = gb_report(tri, tri.default_measure())
            assert rep.chi_comb == 0
            assert rep.mu_total.value == 0.0
            assert rep.link_verdict.passed
            assert all(abs(kk.value) < 1e-12 for kk in rep.simplex_sums)
            assert rep.passed

    def test_klein_grid(self):
        tri = load(builtin_document("klein-grid", k=3))
        rep = gb_report(tri, tri.default_measure())
        assert rep.chi_comb == 0 and rep.mu_total.value == 0.0
        assert rep.passed

    def test_grid_with_mixture_measure(self):
        # mixing the infinity circle with an invariant point mass at a
        # fixed infinity direction keeps every verdict intact
        from gbmeasure import AtomicMeasure as AM, Mixture
        tri = load(builtin_document("t2-grid", k=2))
        mix = Mixture([(0.5, tri.default_measure()),
                       (0.5, AM.dirac(np.array([2.0, 1.0, 0.0])))])
        rep = gb_report(tri, mix)
        assert rep.mu_total.value == 0.0
        assert rep.passed

    def test_monte_carlo_error_bars_calibrated(self):
        # z-scores over 100 seeds of estimates that share each top's samples
        tri = octahedron()
        m = RoundMeasure(2, monte_carlo=True)
        z = {"link": [], "defect": [], "k": [], "sum_defects": [], "mu": []}
        for seed in range(100):
            rep = gb_report(tri, m, MCConfig(seed=seed, samples=20_000))
            for key, est, expected in (
                    ("link", rep.link_sums[(0, 0)], 1.0),
                    ("defect", rep.vertex_defects[0], 0.0),
                    ("k", rep.simplex_sums[0], 0.25),
                    ("sum_defects", rep.sum_defects, 0.0),
                    ("mu", rep.mu_total, 2.0)):
                z[key].append((est.value - expected) / est.std_error)
        for key, scores in z.items():
            scores = np.array(scores)
            assert np.count_nonzero(np.abs(scores) > 4.0) <= 1, key
            assert 0.75 <= np.std(scores) <= 1.3, key

    @pytest.mark.parametrize("measure", [
        RoundMeasure(2, monte_carlo=True),
        Mixture([(0.5, RoundMeasure(2, monte_carlo=True)),
                 (0.5, AtomicMeasure([([0.3, 0.5, 0.8], 1.2),
                                      ([-0.7, 0.2, 0.4], 0.8)]))]),
        _batched_measures()[1]], ids=["round-mc", "mixture", "restriction"])
    def test_error_bars_match_a_brute_force_reference(self, measure):
        # every reported error bar of a sampled octahedron against the
        # centered variance of its per-code coefficients, built here
        tri = octahedron()
        mc = MCConfig(seed=6, samples=20_000)
        rep = gb_report(tri, measure, mc)
        got = ({("link",) + key: e.std_error
                for key, e in rep.link_sums.items()}
               | {("defect", v): e.std_error
                  for v, e in rep.vertex_defects.items()}
               | {("k", t): e.std_error
                  for t, e in enumerate(rep.simplex_sums)}
               | {("sum_defects",): rep.sum_defects.std_error,
                  ("mu",): rep.mu_total.std_error})
        want = _reference_std_errors(tri, measure, mc)
        assert got.keys() == want.keys()
        assert sum(v > 0.0 for v in want.values()) > 20
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-12 * value, key

    @pytest.mark.parametrize("measure", _batched_measures(),
                             ids=["mixture", "restriction"])
    def test_batched_measure_error_bars_calibrated(self, measure):
        # z-scores over 100 seeds: mu and the link sums are 2 and 1 for
        # any measure without mass on the octahedron's planes
        tri = octahedron()
        z = {"mu": [], "link": []}
        for seed in range(100):
            rep = gb_report(tri, measure, MCConfig(seed=seed, samples=20_000))
            z["mu"].append((rep.mu_total.value - 2.0)
                           / rep.mu_total.std_error)
            z["link"] += [(est.value - 1.0) / est.std_error
                          for (r, _), est in rep.link_sums.items()
                          if r < tri.dim]
        for key, scores in z.items():
            assert 0.8 <= np.std(scores) <= 1.25, key

    def test_monte_carlo_link_gaps_have_gaussian_tails(self):
        # z-scores of the 18 link gaps over 200 seeds, pooled.  Each top
        # turned by one rotation for a whole run makes them a scale mixture
        # of Gaussians: kurtosis 3.56, and 21 beyond 3 sigma (9.7 expected)
        tri = octahedron()
        m = RoundMeasure(2, monte_carlo=True)
        z = []
        for seed in range(200):
            rep = gb_report(tri, m, MCConfig(seed=seed, samples=20_000))
            z += [(est.value - 1.0) / est.std_error
                  for (r, _), est in rep.link_sums.items() if r < tri.dim]
        z = np.array(z)
        assert len(z) == 200 * 18
        assert np.mean(z ** 4) / np.mean(z ** 2) ** 2 <= 3.25

    def test_monte_carlo_link_gaps_have_gaussian_tails_when_rows_are_reread(
            self, monkeypatch):
        # the kernel's constants scaled down so that 20000 readings reuse
        # rows: blocks of 8192 readings draw 2048 fresh rows in 16 chunks
        # and read each row 4 times.  A single reread chunk gave kurtosis
        # 3.73 against 3.16 without reuse
        monkeypatch.setattr(measure_module, "_CHUNK", 128)
        monkeypatch.setattr(measure_module, "_ROWS", 2048)
        monkeypatch.setattr(measure_module, "_BLOCK", 8192)
        tri = octahedron()
        m = RoundMeasure(2, monte_carlo=True)
        z = []
        for seed in range(200):
            rep = gb_report(tri, m, MCConfig(seed=seed, samples=20_000))
            z += [(est.value - 1.0) / est.std_error
                  for (r, _), est in rep.link_sums.items() if r < tri.dim]
        z = np.array(z)
        assert len(z) == 200 * 18
        assert np.mean(z ** 4) / np.mean(z ** 2) ** 2 <= 3.25
        assert 0.85 <= np.std(z) <= 1.15

    def test_circle_polygon_odd_dimension(self):
        tri = load(builtin_document("s1-polygon", m=6))
        rep = gb_report(tri, tri.default_measure())
        assert rep.odd_dimension
        assert rep.chi_equals_mu is None
        assert rep.k_vanishing.passed
        assert rep.passed

    def test_octahedron_monte_carlo(self):
        tri = octahedron()
        rep = gb_report(tri, RoundMeasure(2, monte_carlo=True),
                        MCConfig(seed=3, samples=40_000))
        assert abs(2.0 - rep.mu_total.value) <= 4 * rep.mu_total.std_error
        assert abs(rep.rearrangement_residual) < 1e-12
        assert rep.passed

    def test_octahedron_interior_atomic(self):
        tri = octahedron()
        m = AtomicMeasure.dirac(np.ones(3))
        rep = gb_report(tri, m)
        # atoms +-(1,1,1)/sqrt3 lie inside two antipodal octants
        assert abs(rep.mu_total.value - 2.0) < 1e-12
        assert rep.passed


class TestTransversality:
    def test_grid_infinity_passes(self):
        tri = load(builtin_document("t2-grid", k=3))
        rep = transversality_check(tri, tri.default_measure())
        assert rep.passed and not rep.vacuous

    def test_round_vacuous(self):
        rep = transversality_check(octahedron(), RoundMeasure(2))
        assert rep.passed and rep.vacuous

    def test_atom_on_edge_fails(self):
        tri = octahedron()
        bad = AtomicMeasure.dirac(np.array([1.0, 1.0, 0.0]))
        rep = transversality_check(tri, bad)
        assert not rep.passed
        assert rep.failures

    def test_interior_atoms_pass(self):
        tri = octahedron()
        rep = transversality_check(tri, AtomicMeasure.dirac(np.ones(3)))
        assert rep.passed

    def test_failures_keep_face_incidence_support_order(self):
        # the plane x3 = 0 holds the subsphere and the atom, and is the
        # developed plane of the octahedron's 4 edges there, each in 2 tops
        measure = Mixture([
            (0.5, SubsphereUniform([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])),
            (0.5, AtomicMeasure.dirac(np.array([1.0, 1.0, 0.0])))])
        rep = transversality_check(octahedron(), measure)
        assert rep.failures == (
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (2, 2, 0), (2, 2, 1),
            (2, 3, 0), (2, 3, 1), (5, 4, 0), (5, 4, 1), (5, 5, 0), (5, 5, 1),
            (9, 6, 0), (9, 6, 1), (9, 7, 0), (9, 7, 1))
        assert all(type(x) is int for failure in rep.failures
                   for x in failure)


class TestDichotomy:
    def test_torus_fixed_point_at_infinity(self):
        tri = load(builtin_document("t2-grid", k=2))
        dirac = AtomicMeasure.dirac(np.array([2.0, 1.0, 0.0]))
        rep = dichotomy_check(tri, dirac, word_length=2)
        assert rep.chi == 0 and rep.chart_mass.value == 0.0
        assert rep.consistent

    def test_icosahedral_full_mass(self):
        tri = load(builtin_document("rp2-icosahedral"))
        rep = dichotomy_check(tri, RoundMeasure(2),
                              mc=MCConfig(seed=5, samples=100_000))
        assert rep.chi == 1
        assert abs(rep.chart_mass.value - 1.0) <= max(
            4 * rep.chart_mass.std_error, 1e-12)
        assert rep.consistent

    def test_octahedron_invariant_points_covered(self):
        tri = octahedron()
        pts = [np.array([1.0, 1.0, 1.0]), np.array([1.0, -2.0, 1.5])]
        rep = dichotomy_check(tri, RoundMeasure(2), invariant_set=pts,
                              mc=MCConfig(seed=6, samples=50_000))
        assert rep.atoms_covered == rep.atoms_total == 2
        assert rep.consistent

    def test_repeated_invariant_point_counts_once(self):
        # p and -p are one projective point
        p, q = np.array([1.0, 1.0, 1.0]), np.array([1.0, -2.0, 1.5])
        rep = dichotomy_check(octahedron(), RoundMeasure(2),
                              invariant_set=[p, -p, q],
                              mc=MCConfig(seed=6, samples=50_000))
        assert rep.atoms_covered == rep.atoms_total == 2
        assert rep.detail == "2/2 invariant points inside the chart union"

    def test_inconsistent_raises(self):
        # round measure is NOT holonomy invariant for the torus: the chart
        # union has positive round mass while chi = 0
        tri = load(builtin_document("t2-grid", k=2))
        with pytest.raises(InconsistentDichotomy):
            dichotomy_check(tri, RoundMeasure(2),
                            mc=MCConfig(seed=7, samples=50_000))

    def test_non_invariant_set_rejected(self):
        tri = load(builtin_document("t2-grid", k=2))
        with pytest.raises(ValueError):
            dichotomy_check(tri, tri.default_measure(),
                            invariant_set=[np.array([1.0, 0.4, 0.2])])

    def test_axis_points_on_chart_boundaries_raise(self):
        # coordinate axes lie on every octant's boundary: undecidable
        tri = octahedron()
        with pytest.raises(BoundaryAtom):
            dichotomy_check(tri, RoundMeasure(2),
                            invariant_set=[np.eye(3)[i] for i in range(3)],
                            mc=MCConfig(seed=1, samples=10_000))

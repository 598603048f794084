from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from gbmeasure import (AtomicMeasure, BoundaryAtom, DegenerateSimplex,
                       InconsistentDichotomy, MCConfig, NotAManifold,
                       RoundMeasure, SchemaError, chart_independence, defect_sums, dichotomy_check,
                       euler_combinatorial, gb_report, load,
                       transversality_check)
from gbmeasure.documents import BUILTIN_DOCUMENTS, builtin_document
from gbmeasure import measure as measure_module
from gbmeasure.triangulation import Incidence, angle_table


def octahedron():
    return load(builtin_document("s2-octahedron"))


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
            table = angle_table(tri, measure, mc)
            link, defects, k, chi, residual = defect_sums(
                tri.faces, tri.incidences,
                lambda t, c: table.per_cut[(t, c)].value)
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
        for rec, est in table.incidence_angles():
            if rec.dim == 0:
                assert abs(est.value - 0.25) < 1e-12
            elif rec.dim == 1:
                assert est.value == 0.5
            else:
                assert est.value == 1.0

    def test_icosahedral_vertex_angle(self):
        tri = load(builtin_document("rp2-icosahedral"))
        table = angle_table(tri, RoundMeasure(2))
        for rec, est in table.incidence_angles():
            if rec.dim == 0:
                assert abs(est.value - 0.2) < 1e-12

    def test_grid_corner_angles_against_infinity_circle(self):
        tri = load(builtin_document("t2-grid", k=2))
        table = angle_table(tri, tri.default_measure())
        # each triangle is a right triangle: corner angles pi/2, pi/4, pi/4
        for t in range(len(tri.tops)):
            corners = sorted(table.angle(t, cut).value
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
        table = angle_table(tri, RoundMeasure(2, monte_carlo=True),
                            MCConfig(seed=4, samples=2500))
        assert draws == [1000, 1000, 500]
        # each top still counts its 2500 readings once
        assert table.induced_mass().samples == len(tri.tops) * 2500


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


class TestChartIndependence:
    @pytest.mark.parametrize("name,params", [
        ("s2-octahedron", {}), ("rp2-icosahedral", {}),
        ("t2-grid", {"k": 2}), ("klein-grid", {"k": 3})])
    def test_paired_angles_agree(self, name, params):
        tri = load(builtin_document(name, **params))
        assert tri.pairings
        entries = chart_independence(tri, tri.default_measure())
        assert entries and all(e.passed for e in entries)

    def test_monte_carlo_within_four_sigma(self):
        tri = load(builtin_document("s2-octahedron"))
        entries = chart_independence(tri, RoundMeasure(2, monte_carlo=True),
                                     MCConfig(seed=9, samples=20_000))
        assert entries and all(e.passed for e in entries)


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

"""Triangulated projective manifolds carrying developed spherical charts.

A triangulation document lists faces per dimension as ordered vertex tuples
(distinct faces may repeat a tuple), one developed spherical simplex per
top simplex (vertex rows matching the face tuple order), and optionally
holonomy generators and face pairings gluing adjacent charts.

The machinery evaluates, for an antipodally invariant measure:

- the angle table: for every (face, incident top simplex) the angle of the
  face inside that top's developed chart;
- link sums S(face) = sum of the face's incident angles, vertex defects
  d(v) = sum over faces through v of (-1)^r (1 - S) / (r + 1), and the
  per-simplex alternating sums k;
- the rearrangement identity sum(d) + sum(k) = Euler characteristic, which
  is pure algebra in the angle table and holds for arbitrary table values;
- the total induced mass mu(M) = sum over top simplices of the measure of
  the developed interior, compared against the Euler characteristic in
  even dimension.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (BoundaryAtom, DegenerateSimplex, DevelopingMismatch,
                     InconsistentDichotomy, NotAManifold, SchemaError,
                     ZeroVector)
from .geom import ProjectiveMap, apply_map, simplex_from_vertices
from .measure import (FiniteOrbitMeasure, MeasureEstimate, combine_estimates,
                      derive_mc)
# angle is not called here but stays importable: bench/spans.py wraps
# triangulation.angle by name
from .simplex import angle, angles_by_cut_set, cut_sets  # noqa: F401
from ._util import (MATCH_TOL, matrices_projectively_equal, ordered_map,
                    points_projectively_equal, projective_distance)

_ROLE_TOP = 20
_SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class Incidence:
    """One (face, top simplex) incidence.

    cut is the sorted tuple of plane indices realizing the face in the
    top's developed chart; positions are the top's vertex slots ordered to
    match the face's own vertex tuple.
    """
    top: int
    cut: tuple
    dim: int
    face: int
    positions: tuple


@dataclass(frozen=True)
class Pairing:
    face: int
    simplex_a: int
    simplex_b: int
    map: ProjectiveMap


class GeometricTriangulation:
    """Validated triangulation with developed charts; immutable after load."""

    def __init__(self, dim, n_vertices, faces, developed, incidences,
                 holonomy=(), pairings=(), measure_spec=None):
        self.dim = dim
        self.n_vertices = n_vertices
        self.faces = faces                  # faces[r] = tuple of vertex tuples
        self.developed = developed          # one SphericalSimplex per top
        self.incidences = incidences
        self.holonomy = tuple(holonomy)
        self.pairings = tuple(pairings)
        self.measure_spec = measure_spec
        self._by_top_cut = {(rec.top, rec.cut): rec for rec in incidences}
        by_face = {}
        for rec in incidences:
            by_face.setdefault((rec.dim, rec.face), []).append(rec)
        self._by_face = by_face

    @property
    def tops(self):
        return self.faces[self.dim]

    def incidences_of_face(self, r, index):
        return tuple(self._by_face.get((r, index), ()))

    def face_hyperplanes(self, r, index):
        """Developed hyperplanes carrying a codimension-1 face."""
        if r != self.dim - 1:
            raise ValueError("face hyperplanes only defined in codim 1")
        out = []
        for rec in self.incidences_of_face(r, index):
            (i,) = rec.cut
            out.append((rec.top, self.developed[rec.top].planes[i].normal))
        return out

    def default_measure(self):
        from .measure import measure_from_spec
        if self.measure_spec is None:
            raise ValueError("document carries no measure")
        return measure_from_spec(self.measure_spec, self.dim)

    def __repr__(self):
        counts = ", ".join("%d" % len(f) for f in self.faces)
        return "GeometricTriangulation(dim=%d, faces=[%s])" % (self.dim,
                                                               counts)


# ---------------------------------------------------------------------------
# loading and validation

def _as_int(value, what, diag):
    try:
        return int(value)
    except (TypeError, ValueError):
        diag.append("%s must be an integer, got %r" % (what, value))
        return None


def _list_field(document, key, diag):
    value = document.get(key, [])
    if not isinstance(value, list):
        diag.append("%s must be a list, got %r" % (key, value))
        return []
    return value


def _square_matrix(value, n, what, diag):
    """value as an (n+1)x(n+1) float array, or None with a diagnostic."""
    try:
        m = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        m = None
    if m is None or m.shape != (n + 1, n + 1):
        diag.append("%s must be a %dx%d matrix of numbers"
                    % (what, n + 1, n + 1))
        return None
    return m


def load(document):
    """Validate a manifold document (parsed JSON) into a triangulation.

    Diagnostics are collected per category; the first failing category
    raises with every violation listed.
    """
    diag = []
    if not isinstance(document, dict):
        raise SchemaError("document must be a JSON object")
    for key in ("dim", "vertices", "faces", "developed"):
        if key not in document:
            diag.append("missing required key %r" % key)
    if diag:
        raise SchemaError(diag)

    n = _as_int(document["dim"], "dim", diag)
    n_vertices = _as_int(document["vertices"], "vertices", diag)
    if diag:
        raise SchemaError(diag)
    if n < 1:
        raise SchemaError("dim must be >= 1, got %d" % n)
    if n_vertices < 1:
        raise SchemaError("vertices must be >= 1")

    faces_doc = document["faces"]
    if not isinstance(faces_doc, dict):
        raise SchemaError("faces must be an object keyed by dimension")
    faces = []
    for r in range(n + 1):
        key = str(r)
        if not isinstance(faces_doc.get(key), list):
            diag.append("faces[%r] must be a list of vertex tuples" % key)
            faces.append(())
            continue
        level = []
        for idx, tup in enumerate(faces_doc[key]):
            try:
                tup = tuple(int(v) for v in tup)
            except (TypeError, ValueError):
                diag.append("face %d of dim %d is not a vertex tuple: %r"
                            % (idx, r, tup))
                continue
            if len(tup) != r + 1:
                diag.append("face %d of dim %d has %d vertices, expected %d"
                            % (idx, r, len(tup), r + 1))
            if any(not 0 <= v < n_vertices for v in tup):
                diag.append("face %d of dim %d references a vertex out of "
                            "range" % (idx, r))
            level.append(tup)
        faces.append(tuple(level))
    if not diag:
        zero_faces = [t[0] for t in faces[0]]
        if sorted(zero_faces) != list(range(n_vertices)):
            diag.append("0-faces must list every vertex exactly once")
    if diag:
        raise SchemaError(diag)

    dev_doc = _list_field(document, "developed", diag)
    rows_of = [_square_matrix(rows, n, "developed[%d]" % t, diag)
               for t, rows in enumerate(dev_doc)]
    if diag:
        raise SchemaError(diag)
    if len(dev_doc) != len(faces[n]):
        raise SchemaError("developed has %d entries for %d top simplices"
                          % (len(dev_doc), len(faces[n])))
    developed = []
    bad = []
    for t, rows in enumerate(rows_of):
        try:
            developed.append(simplex_from_vertices(rows))
        except (DegenerateSimplex, ZeroVector) as err:
            bad.append("top simplex %d: %s" % (t, err))
    if bad:
        raise DegenerateSimplex("; ".join(bad))

    incidences, inc_diag = _assign_incidences(n, faces)
    if inc_diag:
        raise SchemaError(inc_diag)

    counts = Counter((rec.dim, rec.face) for rec in incidences)
    bad = ["face %d %s of dim %d lies in no top simplex" % (idx, tup, r)
           for r in range(n - 1) for idx, tup in enumerate(faces[r])
           if not counts[(r, idx)]]
    bad += ["codim-1 face %d %s belongs to %d top simplices, expected 2"
            % (idx, tup, counts[(n - 1, idx)])
            for idx, tup in enumerate(faces[n - 1])
            if counts[(n - 1, idx)] != 2]
    if bad:
        raise NotAManifold(bad)

    holonomy = []
    for gidx, m in enumerate(_list_field(document, "holonomy_generators",
                                         diag)):
        m = _square_matrix(m, n, "holonomy generator %d" % gidx, diag)
        if m is not None:
            holonomy.append(ProjectiveMap(m))

    pairings = []
    bad = []
    for pidx, p in enumerate(_list_field(document, "pairings", diag)):
        try:
            ids = (int(p["face"]), int(p["simplex_a"]), int(p["simplex_b"]))
            m = _square_matrix(p["matrix"], n, "pairing %d matrix" % pidx,
                               diag)
        except (KeyError, TypeError, ValueError) as err:
            diag.append("pairing %d is malformed: %s" % (pidx, err))
            continue
        if m is not None:
            pairings.append(Pairing(*ids, ProjectiveMap(m)))
    if diag:
        raise SchemaError(diag)
    tri = GeometricTriangulation(n, n_vertices, tuple(faces),
                                 tuple(developed), tuple(incidences),
                                 holonomy, tuple(pairings),
                                 document.get("measure"))
    for pidx, pairing in enumerate(tri.pairings):
        err = _pairing_error(tri, pairing)
        if err:
            bad.append("pairing %d: %s" % (pidx, err))
    if bad:
        raise DevelopingMismatch(bad)
    return tri


def _assign_incidences(n, faces):
    """Match every top-simplex subtuple to a face index.

    Ordered-tuple match first, then reversed-tuple match (orientation-
    reversing identifications); exact duplicate tuples are consumed
    round-robin so a doubled face receives a balanced share.
    """
    diag = []
    lookup = []
    for r in range(n + 1):
        table = {}
        for idx, tup in enumerate(faces[r]):
            table.setdefault(tup, []).append(idx)
        lookup.append(table)
    counters = {}
    incidences = []
    for t, tup in enumerate(faces[n]):
        full = tuple(range(n + 1))
        incidences.append(Incidence(t, (), n, t, full))
        for size in range(1, n + 1):
            r = n - size
            for keep in combinations(range(n + 1), r + 1):
                sub = tuple(tup[p] for p in keep)
                cut = tuple(i for i in full if i not in keep)
                cands = lookup[r].get(sub)
                positions = keep
                key = (r, sub)
                if cands is None and sub != sub[::-1]:
                    cands = lookup[r].get(sub[::-1])
                    positions = tuple(reversed(keep))
                    key = (r, sub[::-1])
                if cands is None:
                    diag.append("top simplex %d: no face of dim %d matches "
                                "vertex tuple %s" % (t, r, (sub,)))
                    continue
                use = counters.get(key, 0)
                counters[key] = use + 1
                incidences.append(Incidence(t, cut, r,
                                            cands[use % len(cands)],
                                            positions))
    return incidences, diag


def _pairing_error(tri, pairing):
    n = tri.dim
    if not 0 <= pairing.face < len(tri.faces[n - 1]):
        return "face index %d out of range" % pairing.face
    recs = {rec.top: rec
            for rec in tri.incidences_of_face(n - 1, pairing.face)}
    if pairing.simplex_a not in recs or pairing.simplex_b not in recs:
        return ("face %d is not shared by simplices %d and %d"
                % (pairing.face, pairing.simplex_a, pairing.simplex_b))
    dev_a = tri.developed[pairing.simplex_a].vertices
    dev_b = tri.developed[pairing.simplex_b].vertices
    for slot in range(n):
        va = dev_a[recs[pairing.simplex_a].positions[slot]]
        vb = dev_b[recs[pairing.simplex_b].positions[slot]]
        gap = projective_distance(pairing.map.apply_to_vector(va), vb)
        if gap > MATCH_TOL:
            return ("vertex slot %d of face %d maps %g away from its mate"
                    % (slot, pairing.face, gap))
    return None


# ---------------------------------------------------------------------------
# combinatorics

def euler_combinatorial(tri):
    """Alternating sum of face counts, with multiplicity."""
    return sum((-1) ** r * len(tri.faces[r]) for r in range(tri.dim + 1))


def defect_sums(face_lists, incidences, angle_of, one=1.0):
    """Link sums, vertex defects and per-top alternating sums, generically.

    angle_of(top, cut) may return floats, exact Fractions or
    MeasureEstimates; one is the unit of the same kind.  Values are added
    left to right in incidence, cut-set and face order.  The returned
    residual sum(d) + sum(k) - chi is an algebraic identity in the table
    and vanishes exactly in exact arithmetic for ANY table values, provided
    every (top, cut) pair is assigned to exactly one face of the matching
    dimension (which the incidence list encodes).
    """
    n = len(face_lists) - 1
    zero = one - one
    link = {(r, i): zero
            for r in range(n + 1) for i in range(len(face_lists[r]))}
    for rec in incidences:
        key = (rec.dim, rec.face)
        link[key] = link[key] + angle_of(rec.top, rec.cut)
    k = []
    for t in range(len(face_lists[n])):
        acc = zero
        for cut in cut_sets(n, n):
            term = angle_of(t, cut)
            acc = acc + term if (n - len(cut)) % 2 == 0 else acc - term
        k.append(acc)
    defects = {tup[0]: zero for tup in face_lists[0]}
    for r in range(n + 1):
        for i, tup in enumerate(face_lists[r]):
            share = (one - link[(r, i)]) / (r + 1)
            for v in tup:
                defects[v] = (defects[v] + share if r % 2 == 0
                              else defects[v] - share)
    chi = sum((-1) ** r * len(face_lists[r]) for r in range(n + 1))
    residual = sum(defects.values(), zero) + sum(k, zero) - chi * one
    return link, defects, k, chi, residual


# ---------------------------------------------------------------------------
# angle tables and the report

@dataclass(frozen=True)
class AngleTable:
    """Angle estimates per (top, cut set), plus the per-incidence view."""
    triangulation: GeometricTriangulation
    per_cut: dict          # (top, cut) -> MeasureEstimate (the angle, in [0,1])

    def angle(self, top, cut):
        return self.per_cut[(top, tuple(sorted(cut)))]

    def incidence_angles(self):
        """[(incidence, estimate)] over every (face, top) incidence."""
        return [(rec, self.per_cut[(rec.top, rec.cut)])
                for rec in self.triangulation.incidences]

    def induced_mass(self):
        """mu(M): the developed interior masses (twice the full-cut angles)
        summed over tops, with the value exactly rounded."""
        tri = self.triangulation
        full = tuple(range(tri.dim + 1))
        return combine_estimates([(2.0, self.per_cut[(t, full)])
                                  for t in range(len(tri.tops))])


def angle_table(tri, measure, mc=None):
    """Evaluate every face angle in its top simplex's developed chart.

    Includes the empty cut set (value exactly 1 for mass-2 measures) and
    the full cut set (half the developed interior mass, used for the
    induced-measure totals).  Each top's angles come from one
    angles_by_cut_set call with a seed derived from the top, so a Monte
    Carlo table makes one draw per top and its entries carry the samples
    they share.  A BoundaryAtom raised by the measure is re-raised naming
    the codimension-1 face whose developed hyperplane carries the mass.
    """
    def per_top(t):
        try:
            angles = angles_by_cut_set(tri.developed[t], measure,
                                       derive_mc(mc, _ROLE_TOP, t))
        except BoundaryAtom as err:
            _name_boundary_face(tri, t, err)
            raise
        return {(t, cut): a.estimate for cut, a in angles.items()}

    per_cut = {}
    for chunk in ordered_map(per_top, range(len(tri.tops))):
        per_cut.update(chunk)
    return AngleTable(tri, per_cut)


def _name_boundary_face(tri, top, err):
    if err.normal is None:
        return
    dev = tri.developed[top]
    for i, plane in enumerate(dev.planes):
        if points_projectively_equal(plane.normal, err.normal):
            rec = tri._by_top_cut.get((top, (i,)))
            if rec is not None:
                err.face = (tri.dim - 1, rec.face)
                err.args = ("%s [codim-1 face %d of top simplex %d]"
                            % (err.args[0], rec.face, top),)
            return


@dataclass(frozen=True)
class Verdict:
    passed: bool
    worst: float
    detail: str


@dataclass(frozen=True)
class TransversalityReport:
    """Whether every developed codim-1 hyperplane misses the measure's
    concentrated-mass subspaces (so boundaries have measure zero)."""
    passed: bool
    vacuous: bool
    failures: tuple   # (face index, top, support index)

    @property
    def detail(self):
        if self.vacuous:
            return "no concentrated-mass subspaces: vacuous pass"
        if self.passed:
            return "all face hyperplanes have measure zero"
        return "%d face hyperplanes carry positive mass" % len(self.failures)


def transversality_check(tri, measure):
    """Check no developed face hyperplane carries positive measure.

    A hyperplane X has positive mass exactly when some support subspace V
    of the measure is contained in X; for an atom this is the atom lying on
    X.  PASS is the hypothesis under which every link sum equals 1.
    """
    supports = measure.support_subspaces()
    if not supports:
        return TransversalityReport(True, True, ())
    failures = []
    n = tri.dim
    for idx in range(len(tri.faces[n - 1])):
        for top, normal in tri.face_hyperplanes(n - 1, idx):
            for sidx, basis in enumerate(supports):
                if np.max(np.abs(basis @ normal)) <= _SUPPORT_TOL:
                    failures.append((idx, top, sidx))
    return TransversalityReport(not failures, False, tuple(failures))


@dataclass(frozen=True)
class GBReport:
    """Everything the Euler-characteristic comparison produces."""
    chi_comb: int
    link_sums: dict          # (r, face) -> MeasureEstimate
    vertex_defects: dict     # vertex -> MeasureEstimate
    simplex_sums: tuple      # per top, MeasureEstimate of k
    sum_defects: MeasureEstimate
    sum_simplex: MeasureEstimate
    mu_total: MeasureEstimate
    rearrangement_residual: float
    rearrangement: Verdict
    link_verdict: Verdict
    chi_mu_residual: float | None
    chi_equals_mu: Verdict | None
    odd_dimension: bool
    k_vanishing: Verdict | None
    transversality: TransversalityReport

    @property
    def passed(self):
        verdicts = (self.rearrangement, self.link_verdict, self.transversality,
                    self.chi_equals_mu, self.k_vanishing)
        return all(v.passed for v in verdicts if v is not None)


def gb_report(tri, measure, mc=None, tol=1e-9):
    """Full report: angle table, defects, induced mass and all verdicts.

    One defect_sums pass over the angle table gives the link sums, vertex
    defects, per-simplex sums k and the residual as MeasureEstimates.  The
    rearrangement residual must vanish (to float accumulation) for any
    measure whatsoever; link sums = 1 and chi = mu need invariance plus
    measure-zero chart boundaries, checked by MeasureEstimate.is_zero: at
    tol for exact measures and 4 standard errors for Monte Carlo.
    """
    n = tri.dim
    table = angle_table(tri, measure, mc)
    one = MeasureEstimate(1.0)
    zero = one - one
    link_sums, vertex_defects, simplex_sums, chi, residual = defect_sums(
        tri.faces, tri.incidences, lambda t, cut: table.per_cut[(t, cut)],
        one=one)
    mu_total = table.induced_mass()

    rearr = Verdict(abs(residual.value) <= tol, abs(residual.value),
                    "sum(d) + sum(k) - chi = %.3g" % residual.value)

    link_gaps = [est - one for (r, _), est in link_sums.items() if r < n]
    worst_link = max((abs(g.value) for g in link_gaps), default=0.0)
    link_verdict = Verdict(all(g.is_zero(tol) for g in link_gaps), worst_link,
                           "worst |S(face) - 1| = %.3g" % worst_link)

    odd = n % 2 == 1
    main_res = main_verdict = k_verdict = None
    if odd:
        worst_k = max((abs(e.value) for e in simplex_sums), default=0.0)
        k_verdict = Verdict(all(e.is_zero(tol) for e in simplex_sums),
                            worst_k, "worst |k| = %.3g" % worst_k)
    else:
        gap = chi * one - mu_total
        main_res = gap.value
        main_verdict = Verdict(gap.is_zero(tol), abs(main_res),
                               "chi - mu = %.3g" % main_res)

    return GBReport(chi, link_sums, vertex_defects, tuple(simplex_sums),
                    sum(vertex_defects.values(), zero),
                    sum(simplex_sums, zero), mu_total, residual.value, rearr,
                    link_verdict, main_res, main_verdict, odd, k_verdict,
                    transversality_check(tri, measure))


@dataclass(frozen=True)
class PairingAngleEntry:
    pairing_index: int
    face: int
    value_a: float
    value_b: float
    discrepancy: float
    passed: bool


def chart_independence(tri, measure, mc=None, tol=1e-9):
    """Angles of paired faces agree whichever incident chart computes them.

    This is the well-definedness of face angles under an invariant measure:
    the two developed images differ by the pairing map.
    """
    tables = {}

    def angle_of(t, cut):
        if t not in tables:
            tables[t] = angles_by_cut_set(tri.developed[t], measure,
                                          derive_mc(mc, _ROLE_TOP, t))
        return tables[t][cut].estimate

    entries = []
    for pidx, pairing in enumerate(tri.pairings):
        recs = {rec.top: rec
                for rec in tri.incidences_of_face(tri.dim - 1, pairing.face)}
        ests = [angle_of(t, recs[t].cut)
                for t in (pairing.simplex_a, pairing.simplex_b)]
        diff = ests[0] - ests[1]
        entries.append(PairingAngleEntry(pidx, pairing.face, ests[0].value,
                                         ests[1].value, abs(diff.value),
                                         diff.is_zero(tol)))
    return entries


# ---------------------------------------------------------------------------
# dichotomy

@dataclass(frozen=True)
class DichotomyReport:
    chi: int
    chart_mass: MeasureEstimate   # probability-normalized lower bound
    words_used: int
    atoms_total: int | None
    atoms_covered: int | None
    consistent: bool
    detail: str


def _holonomy_words(generators, length):
    if not generators:
        return []
    words = [ProjectiveMap.identity(generators[0].dim)]
    frontier = list(words)
    steps = [g for g in generators] + [g.inverse() for g in generators]
    for _ in range(length):
        fresh = []
        for w in frontier:
            for s in steps:
                nxt = w.compose(s)
                if not any(matrices_projectively_equal(nxt.matrix, q.matrix)
                           for q in words):
                    words.append(nxt)
                    fresh.append(nxt)
        frontier = fresh
    return words


def dichotomy_check(tri, measure, invariant_set=None, mc=None, word_length=0):
    """Compare the sign of chi against the measure of the chart union.

    The union of developed top-simplex interiors (optionally enlarged by
    holonomy words up to word_length) is a lower bound for the developing
    image's mass.  chi = 0 demands the bound stay 0; a certified positive
    bound with chi = 0 raises InconsistentDichotomy.  With a finite
    invariant point set supplied and chi > 0, every point must lie inside
    some (translated) chart.
    """
    chi = euler_combinatorial(tri)
    if tri.holonomy and word_length > 0:
        words = _holonomy_words(list(tri.holonomy), word_length)
    else:
        words = [ProjectiveMap.identity(tri.dim)]
    regions = []
    for w in words:
        for dev in tri.developed:
            regions.append(apply_map(w, dev.region()))
    mass = measure.union_mass(regions, mc).scaled(0.5)

    atoms_total = atoms_covered = None
    covered_positive = False
    if invariant_set is not None:
        pts = [np.asarray(p, dtype=float) for p in invariant_set]
        pts = [p / np.linalg.norm(p) for p in pts]
        _require_invariant(pts, tri.holonomy)
        orbit = FiniteOrbitMeasure(pts)
        cov = orbit.union_mass(regions)
        atoms_total = len(pts)
        # each covered projective atom contributes 2/m of the sphere mass
        atoms_covered = round(cov.value * len(pts) / 2.0)
        covered_positive = atoms_covered > 0

    certified_positive = mass.value > 0.0 and not mass.is_zero(1e-12)

    if chi == 0:
        if certified_positive or covered_positive:
            raise InconsistentDichotomy(
                "chi = 0 but the chart union carries certified mass "
                "%.6g (invariance assumptions violated)" % mass.value)
        consistent = True
        detail = "chi = 0 and the chart-union bound stays 0"
    elif chi > 0:
        if invariant_set is not None:
            consistent = atoms_covered == atoms_total
            detail = ("%d/%d invariant points inside the chart union"
                      % (atoms_covered, atoms_total))
            if not consistent:
                detail += (" (inconclusive: charts only bound the developing"
                           " image from below)")
        else:
            consistent = True
            detail = "chi > 0 with chart-union mass %.6g" % mass.value
    else:
        consistent = False
        detail = ("chi < 0 is impossible under an invariant measure in even"
                  " dimension")
    return DichotomyReport(chi, mass, len(words), atoms_total, atoms_covered,
                           consistent, detail)


def _require_invariant(points, generators):
    for g in generators:
        for p in points:
            q = g.apply_to_vector(p)
            if not any(points_projectively_equal(q, r) for r in points):
                raise ValueError(
                    "supplied point set is not invariant under the holonomy "
                    "generators")

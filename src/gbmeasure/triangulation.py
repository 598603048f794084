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

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import (BoundaryAtom, DegenerateSimplex, DevelopingMismatch,
                     InconsistentDichotomy, NotAManifold, SchemaError,
                     SingularMatrix)
from .geom import ProjectiveMap, apply_map, simplex_stack
from .measure import ATOM_TOL, FiniteOrbitMeasure, IndexMap, MeasureEstimate
# angle is not called here but stays importable: bench/spans.py wraps
# triangulation.angle by name
from .simplex import angle, angle_estimates, cut_sets, k_map  # noqa: F401
from ._util import (MATCH_TOL, all_integers, is_integer, numeric_array,
                    points_projectively_equal, projective_closure,
                    projective_gaps, scaled_flat)


class Incidence(NamedTuple):
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


class Pairing(NamedTuple):
    face: int
    simplex_a: int
    simplex_b: int
    map: ProjectiveMap


class GeometricTriangulation:
    """Validated triangulation with developed charts; immutable after load."""

    def __init__(self, dim, n_vertices, faces, developed, incidences, walls,
                 holonomy=(), pairings=(), measure_spec=None):
        self.dim = dim
        self.n_vertices = n_vertices
        self.faces = faces                  # faces[r] = tuple of vertex tuples
        self.developed = developed          # one SphericalSimplex per top
        self.incidences = incidences
        self.walls = walls                  # incidences per codim-1 face
        self.holonomy = tuple(holonomy)
        self.pairings = tuple(pairings)
        self.measure_spec = measure_spec

    @property
    def tops(self):
        return self.faces[self.dim]

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
    if is_integer(value):
        return int(value)
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
    m = numeric_array(value, (n + 1, n + 1))
    if m is None:
        diag.append("%s must be a %dx%d matrix of finite numbers"
                    % (what, n + 1, n + 1))
    return m


def _projective_map(m, what, diag, maps):
    """The ProjectiveMap of the square float array m, or None with a
    diagnostic (also for m None); maps holds one map, or the SingularMatrix
    it raised, per bitwise-distinct matrix."""
    if m is not None and m.tobytes() not in maps:
        try:
            maps[m.tobytes()] = ProjectiveMap(m)
        except SingularMatrix as err:
            maps[m.tobytes()] = err
    got = None if m is None else maps[m.tobytes()]
    if isinstance(got, SingularMatrix):
        diag.append("%s is singular: %s" % (what, got))
        return None
    return got


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
            if not isinstance(tup, (list, tuple)) or not all_integers(tup):
                diag.append("face %d of dim %d is not a vertex tuple: %r"
                            % (idx, r, tup))
                continue
            tup = tuple(map(int, tup))
            if len(tup) != r + 1:
                diag.append("face %d of dim %d has %d vertices, expected %d"
                            % (idx, r, len(tup), r + 1))
            if tup and not 0 <= min(tup) <= max(tup) < n_vertices:
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
    stack = numeric_array(dev_doc, (None, n + 1, n + 1))
    if stack is None:       # name every malformed entry
        for t, rows in enumerate(dev_doc):
            _square_matrix(rows, n, "developed[%d]" % t, diag)
    if diag:
        raise SchemaError(diag)
    if len(dev_doc) != len(faces[n]):
        raise SchemaError("developed has %d entries for %d top simplices"
                          % (len(dev_doc), len(faces[n])))
    developed = simplex_stack(stack) if dev_doc else []
    bad = ["top simplex %d: %s" % (t, s) for t, s in enumerate(developed)
           if isinstance(s, Exception)]
    if bad:
        raise DegenerateSimplex("; ".join(bad))

    # the tops each well-formed pairing names for its codim-1 face
    claims, entries = {}, document.get("pairings", [])
    for p in entries if isinstance(entries, list) else ():
        ids = [p.get(key) if isinstance(p, dict) else None
               for key in ("face", "simplex_a", "simplex_b")]
        if all_integers(ids):
            claims.setdefault((n - 1, ids[0]), []).extend(ids[1:])
    incidences, inc_diag = _assign_incidences(n, faces, claims=claims)
    if inc_diag:
        raise SchemaError(inc_diag)

    walls = _walls(n, faces, incidences)
    held = {(rec.dim, rec.face) for rec in incidences}
    bad = ["face %d %s of dim %d lies in no top simplex" % (idx, tup, r)
           for r in range(n - 1) for idx, tup in enumerate(faces[r])
           if (r, idx) not in held]
    bad += ["codim-1 face %d %s belongs to %d top simplices, expected 2"
            % (idx, tup, len(wall))
            for idx, (tup, wall) in enumerate(zip(faces[n - 1], walls))
            if len(wall) != 2]
    if bad:
        raise NotAManifold(bad)

    maps = {}
    # a None left for a malformed generator raises below with diag
    holonomy = []
    for gidx, m in enumerate(_list_field(document, "holonomy_generators",
                                         diag)):
        what = "holonomy generator %d" % gidx
        holonomy.append(_projective_map(_square_matrix(m, n, what, diag),
                                        what, diag, maps))

    entries = _list_field(document, "pairings", diag)
    try:    # a stack that fails is validated entry by entry
        stack = numeric_array([p["matrix"] for p in entries],
                              (None, n + 1, n + 1))
    except (KeyError, TypeError):
        stack = None
    pairings = []
    for pidx, p in enumerate(entries):
        what = "pairing %d matrix" % pidx
        try:
            ids = (p["face"], p["simplex_a"], p["simplex_b"])
            m = (_square_matrix(p["matrix"], n, what, diag) if stack is None
                 else stack[pidx])
        except (KeyError, TypeError) as err:
            diag.append("pairing %d is malformed: %s" % (pidx, err))
            continue
        m = _projective_map(m, what, diag, maps)
        if not all_integers(ids):
            diag.append("pairing %d face and simplices must be integers, "
                        "got %r" % (pidx, ids))
            continue
        if m is not None:
            pairings.append(Pairing(*map(int, ids), m))
    if diag:
        raise SchemaError(diag)
    tri = GeometricTriangulation(n, n_vertices, tuple(faces),
                                 tuple(developed), tuple(incidences),
                                 walls, holonomy, tuple(pairings),
                                 document.get("measure"))
    bad = _pairing_errors(tri)
    if bad:
        raise DevelopingMismatch(bad)
    return tri


def _assign_incidences(n, faces, dims=None, claims=None):
    """Match every top-simplex subtuple of a face dimension in dims (by
    default all below n) to a face index.

    Ordered-tuple match first, then reversed-tuple match (orientation-
    reversing identifications).  Among faces of one repeated tuple, a top
    goes to a face (r, idx) whose list claims[(r, idx)] names it, once per
    naming; the faces no list names take the other tops round-robin, so a
    doubled face receives a balanced share.
    """
    claims = {key: list(tops) for key, tops in (claims or {}).items()}
    diag, lookup = [], {}
    for r in range(n) if dims is None else dims:
        table = lookup[r] = {}
        for idx, tup in enumerate(faces[r]):
            table.setdefault(tup, []).append(idx)
    full = tuple(range(n + 1))
    # (face dim, kept slots, cut planes, kept slots reversed) per proper face
    splits = [(r, keep, tuple(i for i in full if i not in keep), keep[::-1])
              for r in range(n - 1, -1, -1) if r in lookup
              for keep in combinations(full, r + 1)]
    counters, incidences = {}, []
    new = tuple.__new__     # Incidence(...) without its Python-level __new__
    for t, tup in enumerate(faces[n]):
        incidences.append(new(Incidence, (t, (), n, t, full)))
        item = tup.__getitem__
        for r, keep, cut, back in splits:
            sub = tuple(map(item, keep))
            key, positions = sub, keep
            cands = lookup[r].get(sub)
            if cands is None and sub != sub[::-1]:
                key, positions = sub[::-1], back
                cands = lookup[r].get(key)
            if cands is None:
                diag.append("top simplex %d: no face of dim %d matches "
                            "vertex tuple %s" % (t, r, (sub,)))
                continue
            face = cands[0]
            if len(cands) > 1:
                named = [c for c in cands if t in claims.get((r, c), ())]
                if named:
                    face = named[0]
                    claims[(r, face)].remove(t)
                else:
                    free = [c for c in cands if (r, c) not in claims] or cands
                    use = counters.get((r, key), 0)
                    counters[(r, key)] = use + 1
                    face = free[use % len(free)]
            incidences.append(new(Incidence, (t, cut, r, face, positions)))
    return incidences, diag


def _walls(n, faces, incidences):
    """Every codim-1 face's incidences, each list in incidence order."""
    walls = tuple([] for _ in faces[n - 1])
    for rec in incidences:
        if rec.dim == n - 1:
            walls[rec.face].append(rec)
    return walls


def _face_vertices(verts, recs):
    """The (len(recs), n, n+1) face vertex rows of codim-1 incidences."""
    return verts[np.array([rec.top for rec in recs])[:, None],
                 np.array([rec.positions for rec in recs])]


def _pairing_errors(tri):
    """One diagnostic per failing pairing, in order: a face out of range, a
    face whose two tops are not its simplices (in either order; when one
    top holds both incidences, simplex_a's is the first), or the first
    vertex slot that the map sends more than MATCH_TOL (up to sign) from
    its mate."""
    errors, checked = {}, []
    for pidx, p in enumerate(tri.pairings):
        if not 0 <= p.face < len(tri.walls):
            errors[pidx] = "face index %d out of range" % p.face
            continue
        pair = tri.walls[p.face]
        if (p.simplex_a, p.simplex_b) != (pair[0].top, pair[1].top):
            pair = pair[::-1]
        if (p.simplex_a, p.simplex_b) == (pair[0].top, pair[1].top):
            checked.append((pidx, *pair))
        else:
            errors[pidx] = ("face %d is not shared by simplices %d and %d"
                            % (p.face, p.simplex_a, p.simplex_b))
    if checked:
        verts = np.stack([s.vertices for s in tri.developed])
        pidxs, recs_a, recs_b = zip(*checked)
        gaps = projective_gaps(
            _face_vertices(verts, recs_a),
            np.array([tri.pairings[i].map.matrix for i in pidxs]),
            _face_vertices(verts, recs_b))
        for i, slot in zip(*np.nonzero(~(gaps <= MATCH_TOL))):
            errors.setdefault(pidxs[i], (
                "vertex slot %d of face %d maps %g away from its mate"
                % (slot, tri.pairings[pidxs[i]].face, gaps[i, slot])))
    return ["pairing %d: %s" % (pidx, errors[pidx]) for pidx in sorted(errors)]


# ---------------------------------------------------------------------------
# combinatorics

def euler_combinatorial(tri):
    """Alternating sum of face counts, with multiplicity."""
    return sum((-1) ** r * len(tri.faces[r]) for r in range(tri.dim + 1))


def _entries(n, incidences, stride):
    """Each incidence's entry in a table of stride angles per top, top
    after top, each top's in cut_sets order."""
    index = {cut: i for i, cut in enumerate(cut_sets(n))}
    return np.array([rec.top * stride + index[rec.cut] for rec in incidences],
                    np.intp)


def _defect_algebra(face_lists, incidences, angles, one, stride):
    """defect_sums of angles, stride per top in cut_sets order: a vector of
    floats or Fractions (an object array) or Estimates, with sum(d) and
    sum(k) before the residual."""
    n = len(face_lists) - 1
    counts = [len(faces) for faces in face_lists]
    first = np.cumsum([0] + counts)
    _, _, dims, ids, _ = zip(*incidences) if incidences else [()] * 5
    link = IndexMap(first[-1], first[list(dims)] + np.array(ids, np.intp),
                    _entries(n, incidences, stride), 1)
    vertices = [t[0] for t in face_lists[0]]
    vertex = np.full(max(vertices, default=-1) + 1, counts[0], np.intp)
    vertex[vertices] = range(counts[0])
    tuples = [np.array(faces, np.intp).reshape(-1, r + 1)
              for r, faces in enumerate(face_lists)]
    # per vertex of each face: the vertex, the face and (-1)^r
    out, into, sign = zip(*[(vertex[t].ravel(),
                             first[r] + np.arange(t.size) // (r + 1),
                             np.full(t.size, (-1) ** r))
                            for r, t in enumerate(tuples)])
    defect = IndexMap(counts[0], np.concatenate(out), np.concatenate(into),
                      np.concatenate(sign))
    links, ks = link(angles), k_map(n, counts[n], stride)(angles)
    defects = defect((one - links) / np.repeat(np.arange(1, n + 2), counts))
    sum_d = IndexMap(1, [0] * counts[0], range(counts[0]), 1)(defects)
    sum_k = IndexMap(1, [0] * counts[n], range(counts[n]), 1)(ks)
    chi = sum((-1) ** r * c for r, c in enumerate(counts))
    return (dict(zip([(r, i) for r, c in enumerate(counts) for i in range(c)],
                     links)), dict(zip(vertices, defects)), list(ks), chi,
            sum_d[0], sum_k[0], (sum_d + sum_k - chi * one)[0])


def defect_sums(face_lists, incidences, angle_of, one=1.0):
    """Link sums, vertex defects and per-top alternating sums, generically.

    angle_of(top, cut) may return floats or exact Fractions; one is the
    unit of the same kind.  Each output is an index map of the vector of
    angles, built from the faces and incidences (gb_report applies the same
    maps to its Estimates): S(face) adds the face's angles in incidence
    order, k signs each top's angles in cut-set order, and d(v) adds
    (-1)^r (one - S) / (r + 1) over the faces through v in dimension order.
    The returned residual sum(d) + sum(k) - chi is an algebraic identity in
    the table and vanishes exactly in exact arithmetic for ANY table
    values, provided every (top, cut) pair is assigned to exactly one face
    of the matching dimension (which the incidence list encodes).
    """
    n = len(face_lists) - 1
    cuts = list(cut_sets(n, n))
    angles = np.array([angle_of(t, cut) for t in range(len(face_lists[n]))
                       for cut in cuts])
    link, defects, k, chi, _, _, residual = _defect_algebra(
        face_lists, incidences, angles, one, len(cuts))
    return link, defects, k, chi, residual


# ---------------------------------------------------------------------------
# angle tables and the report

def angle_table(tri, measure, mc=None):
    """Evaluate every face angle in its top simplex's developed chart.

    Returns the angle_estimates batch of the tops: top after top, each its
    2^(n+1) cut sets in cut_sets order, from the empty cut set (value
    exactly 1 for mass-2 measures) to the full cut set (half the developed
    interior mass, used for the induced-measure totals).  The measure
    answers at most two eval_many calls, a sampled round or subsphere
    table makes one draw in all, and its entries carry the samples they
    share.  A BoundaryAtom raised by the measure is re-raised naming the
    codimension-1 face whose developed hyperplane carries the mass.
    """
    try:
        return angle_estimates(tri.developed, measure, mc)
    except BoundaryAtom as err:
        _name_boundary_face(tri, err)
        raise


def incidence_angles(tri, table):
    """[(incidence, estimate)] over every (face, top) incidence of tri,
    read from its angle_table."""
    entries = _entries(tri.dim, tri.incidences, 2 << tri.dim)
    return [(rec, table[i]) for rec, i in zip(tri.incidences,
                                              entries.tolist())]


def _name_boundary_face(tri, err):
    """Name the face of the first top with a plane through err's mass.

    Every evaluation of a top tests its full cut set first, and tops are
    evaluated in order, so that top is the one that raised.
    """
    for rec in tri.incidences:
        if rec.dim == tri.dim - 1 and points_projectively_equal(
                tri.developed[rec.top].normals[rec.cut[0]], err.normal):
            err.face = (tri.dim - 1, rec.face)
            err.args = ("%s [codim-1 face %d of top simplex %d]"
                        % (err.args[0], rec.face, rec.top),)
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
    # one row per (face, incidence), tested against each support at once
    recs = [rec for wall in tri.walls for rec in wall]
    normals = np.array([tri.developed[rec.top].normals[rec.cut[0]]
                        for rec in recs])
    hit = np.array([np.max(np.abs(basis @ normals.T), axis=0) <= ATOM_TOL
                    for basis in supports])
    rows, sidxs = np.nonzero(hit.T)
    failures = tuple((recs[i].face, recs[i].top, sidx)
                     for i, sidx in zip(rows.tolist(), sidxs.tolist()))
    return TransversalityReport(not failures, False, failures)


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

    The index maps of defect_sums, applied to the table's Estimates, give
    the link sums, vertex defects, per-simplex sums k and the residual.  The
    rearrangement residual must vanish (to float accumulation) for any
    measure whatsoever; link sums = 1 and chi = mu need invariance plus
    measure-zero chart boundaries, checked by MeasureEstimate.is_zero: at
    tol for exact measures and 4 standard errors for Monte Carlo.
    """
    n, tops, size = tri.dim, len(tri.tops), 2 << tri.dim
    table = angle_table(tri, measure, mc)
    (link_sums, vertex_defects, simplex_sums, chi, sum_defects, sum_simplex,
     residual) = _defect_algebra(tri.faces, tri.incidences, table, 1.0, size)
    # mu(M): twice each top's full-cut angle, exactly rounded
    mu_total = table.mapped(IndexMap(1, np.zeros(tops),
                                     np.arange(1, tops + 1) * size - 1, 2.0),
                            fsum=True)[0]

    rearr = Verdict(abs(residual.value) <= tol, abs(residual.value),
                    "sum(d) + sum(k) - chi = %.3g" % residual.value)

    link_gaps = [MeasureEstimate(est.value - 1.0, est.std_error, est.samples)
                 for (r, _), est in link_sums.items() if r < n]
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
        gap = MeasureEstimate(chi - mu_total.value, mu_total.std_error,
                              mu_total.samples)
        main_res = gap.value
        main_verdict = Verdict(gap.is_zero(tol), abs(main_res),
                               "chi - mu = %.3g" % main_res)

    return GBReport(chi, link_sums, vertex_defects, tuple(simplex_sums),
                    sum_defects, sum_simplex, mu_total, residual.value, rearr,
                    link_verdict, main_res, main_verdict, odd, k_verdict,
                    transversality_check(tri, measure))


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


def _holonomy_words(generators, dim, length):
    """Distinct words of at most length letters, identity first."""
    moves = list(generators) + [g.inverse() for g in generators]
    return projective_closure([ProjectiveMap.identity(dim)],
                              [lambda w, s=s: w.compose(s) for s in moves],
                              lambda w: scaled_flat(w.matrix),
                              depth=max(length, 0))


def dichotomy_check(tri, measure, invariant_set=None, mc=None, word_length=0):
    """Compare the sign of chi against the measure of the chart union.

    The union of developed top-simplex interiors (optionally enlarged by
    holonomy words up to word_length) is a lower bound for the developing
    image's mass.  chi = 0 demands the bound stay 0; a certified positive
    bound with chi = 0 raises InconsistentDichotomy.  With a finite
    invariant point set supplied and chi > 0, every point must lie inside
    some (translated) chart; a point listed twice, up to sign within 1e-9,
    counts once, and the set is invariant when one closure step under the
    holonomy generators finds no new point (ValueError otherwise).  In odd
    dimension chi = 0 whatever the measure, as chi = mu holds in even
    dimension only, so the check does not apply there and reads consistent.
    """
    chi = euler_combinatorial(tri)
    words = _holonomy_words(tri.holonomy, tri.dim, word_length)
    regions = []
    for w in words:
        for dev in tri.developed:
            regions.append(apply_map(w, dev.region()))
    whole = measure.union_mass(regions, mc)
    mass = MeasureEstimate(0.5 * whole.value, 0.5 * whole.std_error,
                           whole.samples)

    atoms_total = atoms_covered = None
    covered_positive = False
    if invariant_set is not None:
        orbit = FiniteOrbitMeasure(invariant_set)
        pts = orbit.orbit
        step = [g.apply_to_vector for g in tri.holonomy]
        if len(projective_closure(pts, step, lambda p: p, depth=1)) > len(pts):
            raise ValueError("supplied point set is not invariant under the "
                             "holonomy generators")
        cov = orbit.union_mass(regions)
        atoms_total = len(pts)
        # each covered projective atom contributes 2/m of the sphere mass
        atoms_covered = round(cov.value * len(pts) / 2.0)
        covered_positive = atoms_covered > 0

    certified_positive = mass.value > 0.0 and not mass.is_zero(1e-12)

    if tri.dim % 2 == 1:
        consistent = True
        detail = ("odd dimension: chi = 0 for every manifold, so the "
                  "chart union decides nothing")
    elif chi == 0:
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

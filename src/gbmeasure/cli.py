"""Command-line front end.

Subcommands wrap the library operations one-to-one:

- check: load a manifold document, run the full report and verdicts.
- sgb: alternating angle sum of a single simplex with its residual.
- angles: print the angle table of a document.
- invariance: check a measure against a generator list on random regions.
- pullback: circle pull-back / quotient constructions and their checks.
- example: write a built-in document to a JSON file.

Exit code 0 means every verdict passed; 1 means a verdict failed; 2 means
a structural error (schema violation, boundary atom, ...), reported as
structured diagnostics.  Reports are byte-identical across runs for
fixed arguments and inputs.
"""

import argparse
import inspect
import json
import math
import sys

import numpy as np

from .documents import (BUILTIN_DOCUMENTS, builtin_document,
                        icosahedral_rotation_group, rotation_about)
from .errors import GBError, SchemaError, SingularMatrix
from .geom import (ProjectiveMap, random_region, random_simplex,
                   simplex_from_vertices)
from .measure import (MCConfig, check_invariance, measure_from_spec)
from .pullback import (AdaptedCovering, CircleAtomicMeasure, PowerMap,
                       covering_independence, default_covering,
                       equivariance_check, induce_quotient, pullback)
from .simplex import k_value, sgb_residual
from .triangulation import dichotomy_check, gb_report, load
from . import triangulation as _tri
from ._util import is_integer, numeric_array


def _estimate_dict(est):
    return {"value": est.value, "std_error": est.std_error,
            "samples": est.samples}


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _load_document(name_or_path, args):
    """A built-in document built with the --k or --m it takes, or a JSON
    file; an option the document does not take is a SchemaError."""
    builtin = BUILTIN_DOCUMENTS.get(name_or_path)
    takes = () if builtin is None else inspect.signature(builtin).parameters
    params = {key: getattr(args, key) for key in ("k", "m")
              if getattr(args, key) is not None}
    for key in params:
        if key not in takes:
            raise SchemaError("--%s: document %r takes no --%s"
                              % (key, name_or_path, key))
    if builtin is not None:
        try:
            return builtin_document(name_or_path, **params)
        except ValueError as err:
            raise SchemaError("--%s: %s" % (" or --".join(params), err))
    with open(name_or_path) as fh:
        return json.load(fh)


def _resolve_measure(spec_arg, tri, dim):
    """Measure from --measure (name, inline JSON or @file) or the loaded
    triangulation tri, None where the command has no document."""
    if spec_arg is None:
        if tri is not None and tri.measure_spec is not None:
            return measure_from_spec(tri.measure_spec, dim)
        spec_arg = "round"
    if spec_arg.startswith("@"):
        with open(spec_arg[1:]) as fh:
            return measure_from_spec(json.load(fh), dim)
    if spec_arg.strip().startswith("{"):
        return measure_from_spec(json.loads(spec_arg), dim)
    named = _named_measure(spec_arg, tri, dim)
    if named is None:
        raise GBError("unknown measure %r" % spec_arg)
    return measure_from_spec(named, dim)


def _named_measure(name, tri, dim):
    if name == "round":
        return {"type": "round"}
    if name == "round-mc":
        return {"type": "round", "monte_carlo": True}
    if name == "infinity-line":
        return {"type": "subsphere", "basis": np.eye(dim, dim + 1).tolist()}
    if name == "atomic-on-edge":
        # deliberately invalid: an atom on a developed codim-1 face
        if tri is None:
            raise GBError("atomic-on-edge needs a document context")
        rec = next(r for r in tri.incidences if r.dim == tri.dim - 1)
        dev = tri.developed[rec.top].vertices
        mid = sum(dev[p] for p in rec.positions)
        mid = mid / np.linalg.norm(mid)
        return {"type": "atomic",
                "atoms": [{"point": mid.tolist(), "weight": 2.0}]}
    return None


def _verdict_dict(v):
    return {"passed": v.passed, "worst": v.worst, "detail": v.detail}


def cmd_check(args):
    document = _load_document(args.document, args)
    tri = load(document)
    measure = _resolve_measure(args.measure, tri, tri.dim)
    report = gb_report(tri, measure, args.mc, tol=args.tolerance)
    payload = {
        "document": args.document,
        "chi": report.chi_comb,
        "mu": _estimate_dict(report.mu_total),
        "sum_defects": _estimate_dict(report.sum_defects),
        "sum_simplex": _estimate_dict(report.sum_simplex),
        "rearrangement_residual": report.rearrangement_residual,
        "verdicts": {
            "rearrangement": _verdict_dict(report.rearrangement),
            "link_sums": _verdict_dict(report.link_verdict),
            "transversality": {"passed": report.transversality.passed,
                               "detail": report.transversality.detail},
        },
        "passed": report.passed,
    }
    lines = ["document: %s" % args.document,
             "chi (combinatorial) = %d" % report.chi_comb,
             "mu(M)               = %.12g (sigma %.3g)"
             % (report.mu_total.value, report.mu_total.std_error),
             "sum d + sum k - chi = %.3g -> %s"
             % (report.rearrangement_residual,
                "PASS" if report.rearrangement.passed else "FAIL"),
             "link sums           : %s (%s)"
             % ("PASS" if report.link_verdict.passed else "FAIL",
                report.link_verdict.detail),
             "transversality      : %s (%s)"
             % ("PASS" if report.transversality.passed else "FAIL",
                report.transversality.detail)]
    if report.odd_dimension:
        payload["verdicts"]["k_vanishing"] = _verdict_dict(report.k_vanishing)
        lines.append("odd dimension: mu comparison skipped; k vanishing: %s"
                     % ("PASS" if report.k_vanishing.passed else "FAIL"))
    else:
        payload["verdicts"]["chi_equals_mu"] = _verdict_dict(
            report.chi_equals_mu)
        lines.append("chi - mu            = %.3g -> %s"
                     % (report.chi_mu_residual,
                        "PASS" if report.chi_equals_mu.passed else "FAIL"))
    ok = report.passed
    if args.dichotomy:
        dich = dichotomy_check(tri, measure, mc=args.mc,
                               word_length=args.orbit_depth)
        payload["dichotomy"] = {
            "chart_mass": _estimate_dict(dich.chart_mass),
            "words": dich.words_used,
            "consistent": dich.consistent,
            "detail": dich.detail,
        }
        lines.append("dichotomy           : %s (%s)"
                     % ("PASS" if dich.consistent else "FAIL", dich.detail))
        ok = ok and dich.consistent
    payload["passed"] = ok
    lines.append("overall             : %s" % ("PASS" if ok else "FAIL"))
    _emit(args, payload, lines)
    return 0 if ok else 1


def cmd_sgb(args):
    if args.vertices:
        vertices = numeric_array(json.loads(args.vertices), (None, None))
        if vertices is None:
            raise SchemaError("--vertices must be a list of rows of finite "
                              "numbers, got %s" % args.vertices)
        simplex = simplex_from_vertices(vertices)
    elif args.random_simplex:
        simplex = random_simplex(args.dim, np.random.default_rng(args.seed))
    else:
        raise GBError("give --random-simplex or --vertices")
    measure = _resolve_measure(args.measure or "round-mc", None, simplex.dim)
    k = k_value(simplex, measure, args.mc)
    residual = sgb_residual(simplex, measure, args.mc, k=k)
    ok = residual.is_zero(args.tolerance)
    payload = {"dim": simplex.dim, "k": _estimate_dict(k),
               "residual": _estimate_dict(residual), "passed": ok}
    _emit(args, payload, [
        "dim       = %d" % simplex.dim,
        "k         = %.9g (sigma %.3g)" % (k.value, k.std_error),
        "residual  = %.3g (sigma %.3g)" % (residual.value,
                                           residual.std_error),
        "verdict   : %s" % ("PASS" if ok else "FAIL")])
    return 0 if ok else 1


def cmd_angles(args):
    document = _load_document(args.document, args)
    tri = load(document)
    measure = _resolve_measure(args.measure, tri, tri.dim)
    table = _tri.angle_table(tri, measure, args.mc)
    entries = []
    for rec, est in table.incidence_angles():
        entries.append({"face_dim": rec.dim, "face": rec.face,
                        "top": rec.top, "cut": list(rec.cut),
                        "angle": _estimate_dict(est)})
    lines = ["%4s %6s %6s %-12s %s" % ("dim", "face", "top", "cut", "angle")]
    for e in entries:
        lines.append("%4d %6d %6d %-12s %.9g" %
                     (e["face_dim"], e["face"], e["top"], e["cut"],
                      e["angle"]["value"]))
    _emit(args, {"angles": entries}, lines)
    return 0


def _named_group(name, dim):
    if name == "icosahedral":
        return icosahedral_rotation_group()
    if name == "klein4":
        return [ProjectiveMap(np.diag(d))
                for d in ([1.0, 1, 1], [-1.0, -1, 1], [1.0, -1, -1],
                          [-1.0, 1, -1])]
    if name.startswith("cyclic:"):
        order = name.split(":", 1)[1]
        if not order.isdecimal():
            raise GBError("--group cyclic:N needs an integer N, got %r"
                          % name)
        return [rotation_about([0.0, 0, 1], 2 * np.pi * j / int(order))
                for j in range(int(order))]
    if name.startswith("@"):
        with open(name[1:]) as fh:
            listed = json.load(fh)
        matrices = ([numeric_array(m, (dim + 1, dim + 1)) for m in listed]
                    if isinstance(listed, list) else [None])
        if any(m is None for m in matrices):
            raise SchemaError("--group %s must hold a list of %dx%d matrices "
                              "of finite numbers" % (name, dim + 1, dim + 1))
        try:
            return [ProjectiveMap(m) for m in matrices]
        except SingularMatrix as err:
            raise SchemaError("--group %s: %s" % (name, err)) from err
    raise GBError("unknown group %r" % name)


def cmd_invariance(args):
    measure = _resolve_measure(args.measure, None, args.dim)
    generators = _named_group(args.group, args.dim)
    if not generators:
        raise GBError("--group %r has no elements" % args.group)
    rng = np.random.default_rng(args.seed)
    regions = [random_region(args.dim, rng, int(rng.integers(1, 4)))
               for _ in range(args.regions)]
    report = check_invariance(measure, generators, regions, args.mc,
                              exact_tol=args.tolerance)
    by_region = report.per_region()
    payload = {"passed": report.passed,
               "max_discrepancy": report.max_discrepancy,
               "regions": [{"region": r, "max_discrepancy": d,
                            "passed": ok}
                           for r, (d, ok) in sorted(by_region.items())],
               "generators": len(generators)}
    lines = ["generators       = %d" % len(generators),
             "regions          = %d" % args.regions]
    lines += ["  region %3d: max discrepancy %.3g -> %s"
              % (r, d, "PASS" if ok else "FAIL")
              for r, (d, ok) in sorted(by_region.items())]
    lines += ["max discrepancy  = %.3g" % report.max_discrepancy,
              "verdict          : %s" % ("PASS" if report.passed else "FAIL")]
    _emit(args, payload, lines)
    return 0 if report.passed else 1


def _check_pullback_input(data):
    """Raise a SchemaError naming the first malformed field of a pullback
    input; an empty covering list is left to the constructions to judge."""
    def pairs(value):
        return value == [] or numeric_array(value, (None, 2)) is not None

    if not isinstance(data, dict):
        raise SchemaError("pullback input must be a JSON object, got %r"
                          % (data,))
    arcs = data.get("coverings", [])
    for key, valid, want in (
            ("degree", is_integer(data.get("degree")) and data["degree"] != 0,
             "a nonzero integer"),
            ("atoms", numeric_array(data.get("atoms"), (None, 2)) is not None
             and all(w > 0 for _, w in data["atoms"]), "a nonempty list of "
             "[angle, weight] pairs of finite numbers with positive weights"),
            ("coverings", isinstance(arcs, list) and all(map(pairs, arcs)),
             "a list of lists of [start, length] pairs of finite numbers")):
        if not valid:
            raise SchemaError("pullback input: %r must be %s, got %r"
                              % (key, want, data.get(key)))


def cmd_pullback(args):
    if args.input.startswith("@"):
        with open(args.input[1:]) as fh:
            data = json.load(fh)
    else:
        data = json.loads(args.input)
    _check_pullback_input(data)
    f = PowerMap(data["degree"])
    lam = CircleAtomicMeasure(data["atoms"])
    coverings = [AdaptedCovering(arcs) for arcs in data.get("coverings", [])]
    if not coverings:
        coverings = [default_covering(f)]
    up = pullback(f, lam, coverings[0])
    verdicts = {}
    for i in range(1, len(coverings)):
        rep = covering_independence(f, lam, coverings[0], coverings[i])
        verdicts["independence_%d" % i] = rep.passed
    eq = equivariance_check(f, lam, coverings[0])
    verdicts["equivariance"] = eq.passed
    induced = induce_quotient(f, up)
    roundtrip = pullback(f, induced, coverings[0]).same_as(up)
    verdicts["quotient_roundtrip"] = roundtrip
    ok = all(verdicts.values())
    payload = {"pulled_back": [[a, w] for a, w in up.atoms],
               "induced": [[a, w] for a, w in induced.atoms],
               "verdicts": verdicts, "passed": ok}
    lines = ["pulled-back atoms: %s"
             % ", ".join("(%.6g, %.6g)" % t for t in up.atoms),
             "induced atoms    : %s"
             % ", ".join("(%.6g, %.6g)" % t for t in induced.atoms)]
    lines += ["%-20s: %s" % (k, "PASS" if v else "FAIL")
              for k, v in sorted(verdicts.items())]
    _emit(args, payload, lines)
    return 0 if ok else 1


def cmd_example(args):
    doc = _load_document(args.name, args)
    out = args.output or (args.name + ".json")
    with open(out, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _emit(args, {"written": out}, ["wrote %s" % out])
    return 0


def _number_from(least, kind, number=int):
    """argparse type: a finite number >= least, of the given type; an int
    written in decimal digits."""
    def parse(text):
        try:
            value = number(text)
        except ValueError:
            value = math.nan
        if not (least <= value < math.inf
                and (number is float or text.strip().isdecimal())):
            raise argparse.ArgumentTypeError("must be %s, got %r"
                                             % (kind, text))
        return value
    return parse


_non_negative_int = _number_from(0, "a non-negative integer")
_positive_int = _number_from(1, "a positive integer")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gbm",
        description="Euler characteristic vs invariant-measure checks for "
                    "triangulated projective manifolds")
    parser.add_argument("--seed", type=_non_negative_int, default=0)
    parser.add_argument("--samples", type=_positive_int, default=1_000_000)
    parser.add_argument("--tolerance", default=1e-9, type=_number_from(
        0.0, "a finite number >= 0", float))
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="full report on a manifold document")
    p.add_argument("document", help="path or built-in name")
    p.add_argument("--measure")
    p.add_argument("--k", type=int, help="grid size for built-in grids")
    p.add_argument("--m", type=int, help="arc count for s1-polygon")
    p.add_argument("--dichotomy", action="store_true",
                   help="also run the chart-union dichotomy check")
    p.add_argument("--orbit-depth", type=_non_negative_int, default=0,
                   help="holonomy word length enlarging the chart union")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sgb", help="alternating angle sum of one simplex")
    p.add_argument("--random-simplex", action="store_true")
    p.add_argument("--dim", type=_non_negative_int, default=2)
    p.add_argument("--vertices", help="JSON rows of simplex vertices")
    p.add_argument("--measure")
    p.set_defaults(func=cmd_sgb)

    p = sub.add_parser("angles", help="angle table of a document")
    p.add_argument("document")
    p.add_argument("--measure")
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("invariance", help="measure invariance report")
    p.add_argument("--measure", required=True)
    p.add_argument("--group", required=True,
                   help="icosahedral | klein4 | cyclic:N | @matrices.json")
    p.add_argument("--dim", type=_non_negative_int, default=2)
    p.add_argument("--regions", type=_positive_int, default=20)
    p.set_defaults(func=cmd_invariance)

    p = sub.add_parser("pullback", help="circle pull-back / quotient checks")
    p.add_argument("input",
                   help="JSON {degree, atoms, coverings} or @file.json")
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("example", help="write a built-in document")
    p.add_argument("name", choices=sorted(BUILTIN_DOCUMENTS))
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_example)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args.mc = MCConfig(seed=args.seed, samples=args.samples)
    try:
        return args.func(args)
    except (GBError, OSError, json.JSONDecodeError) as err:
        diagnostic = {"error": type(err).__name__, "detail": str(err)}
        if args.format == "json":
            print(json.dumps(diagnostic, sort_keys=True, indent=2))
        else:
            print("ERROR %s: %s" % (diagnostic["error"],
                                    diagnostic["detail"]))
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands wrap the library operations one-to-one:

- check: load a manifold document, run the full report and verdicts.
- sgb: alternating angle sum of a single simplex with its residual.
- angles: print the angle table of a document.
- invariance: check a measure against a generator list on random regions.
- pullback: circle pull-back / quotient constructions and their checks.
- example: write a built-in document to a JSON file.

Each builds one JSON payload, printed as sorted JSON or as one text line
per field.  Exit code 0 means every verdict passed; 1 means a verdict
failed; 2 means a structural error (schema violation, boundary atom, ...),
reported as a structured diagnostic.  Reports are byte-identical across
runs for fixed arguments and inputs.
"""

import argparse
import inspect
import json
import math
import os
import sys

import numpy as np

from .documents import (BUILTIN_DOCUMENTS, builtin_document,
                        icosahedral_rotation_group, rotation_about)
from .errors import GBError, InsufficientSamples, SchemaError, SingularMatrix
from .geom import (ProjectiveMap, random_region, random_simplex,
                   simplex_from_vertices)
from .measure import (MCConfig, check_invariance, measure_from_spec)
from .pullback import (AdaptedCovering, CircleAtomicMeasure, PowerMap,
                       covering_independence, default_covering,
                       equivariance_check, induce_quotient, pullback)
from .simplex import check_dimension, k_and_mass, k_value, sgb_residual
from .triangulation import dichotomy_check, gb_report, load
from . import triangulation as _tri
from ._util import is_integer, numeric_array

_ESTIMATE = ("value", "std_error", "samples")
_VERDICT = ("passed", "worst", "detail")
# the global options, each with its default; a command names in "reads"
# those it reads, and main refuses any other that is given
_GLOBALS = {"seed": 0, "samples": 1_000_000, "tolerance": 1e-9}
# the option conflicts main refuses: (command, option, whether it needs or
# excludes the other, other option, detail)
_CONFLICTS = (
    ("check", "orbit_depth", True, "dichotomy",
     "--orbit-depth: the chart union it enlarges needs --dichotomy"),
    ("sgb", "vertices", False, "random_simplex",
     "--vertices: give --random-simplex or --vertices, not both"),
    ("sgb", "vertices", False, "dim",
     "--dim: a --vertices simplex takes its dimension from the vertices"),
)


def _given(args, option):
    """Whether option was given: a flag set, any other option not None
    (0 counts as given)."""
    value = getattr(args, option)
    return value is not None and value is not False


def _fields(obj, names=_ESTIMATE):
    """The named attributes of obj, by default those of an estimate."""
    return {name: getattr(obj, name) for name in names}


def _text(value):
    """A payload value on one line: a boolean verdict as PASS or FAIL, an
    estimate as its value, sigma and samples, an object as its fields led
    by its verdict, if any."""
    if isinstance(value, bool):
        return "PASS" if value else "FAIL"
    if isinstance(value, float):
        return "%.12g" % value
    if isinstance(value, dict) and tuple(value) == _ESTIMATE:
        return "%.12g (sigma %.3g, samples %d)" % tuple(value.values())
    if isinstance(value, dict):
        fields = ", ".join("%s %s" % (key, _text(v))
                           for key, v in value.items() if key != "passed")
        return ("%s (%s)" % (_text(value["passed"]), fields)
                if "passed" in value else fields)
    return value if isinstance(value, str) else json.dumps(value)


def _text_lines(payload, indent=""):
    """One line per field, named by its key; an object without a verdict
    or a list of objects goes under its key, a line per field or item."""
    for key, value in payload.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            yield "%s%s:" % (indent, key)
            yield from ("%s  - %s" % (indent, _text(item)) for item in value)
        elif (isinstance(value, dict) and "passed" not in value
              and tuple(value) != _ESTIMATE):
            yield "%s%s:" % (indent, key)
            yield from _text_lines(value, indent + "  ")
        else:
            yield "%s%s: %s" % (indent, key, _text(value))


def _emit(args, payload):
    """Print payload as JSON or text.  Once the reader has closed stdout,
    what is still buffered goes to the null device, so that the exit's
    flush does not write to the closed pipe again."""
    text = (json.dumps(payload, sort_keys=True, indent=2)
            if args.format == "json" else "\n".join(_text_lines(payload)))
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _json_argument(text):
    """Inline JSON, or after a leading @ the JSON file it names."""
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return json.load(fh)
    return json.loads(text)


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


def _document_and_measure(args):
    tri = load(_load_document(args.document, args))
    return tri, _resolve_measure(args.measure, tri, tri.dim)


def _resolve_measure(spec_arg, tri, dim):
    """Measure from --measure (name, inline JSON or @file) or the loaded
    triangulation tri, None where the command has no document."""
    if spec_arg is None:
        if tri is not None and tri.measure_spec is not None:
            return measure_from_spec(tri.measure_spec, dim)
        spec_arg = "round"
    if spec_arg.startswith("@") or spec_arg.strip().startswith("{"):
        return measure_from_spec(_json_argument(spec_arg), dim)
    return measure_from_spec(_named_measure(spec_arg, tri, dim), dim)


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
    raise GBError("unknown measure %r" % name)


def cmd_check(args):
    tri, measure = _document_and_measure(args)
    report = gb_report(tri, measure, args.mc, tol=args.tolerance)
    verdicts = {
        "rearrangement": _fields(report.rearrangement, _VERDICT),
        "link_sums": _fields(report.link_verdict, _VERDICT),
        "transversality": _fields(report.transversality,
                                  ("passed", "detail")),
    }
    if report.odd_dimension:
        verdicts["k_vanishing"] = _fields(report.k_vanishing, _VERDICT)
    else:
        verdicts["chi_equals_mu"] = _fields(report.chi_equals_mu, _VERDICT)
    payload = {
        "document": args.document,
        "chi": report.chi_comb,
        "mu": _fields(report.mu_total),
        "sum_defects": _fields(report.sum_defects),
        "sum_simplex": _fields(report.sum_simplex),
        "rearrangement_residual": report.rearrangement_residual,
        "verdicts": verdicts,
    }
    ok = report.passed
    if args.dichotomy:
        dich = dichotomy_check(tri, measure, mc=args.mc,
                               word_length=args.orbit_depth or 0)
        payload["dichotomy"] = {
            "chart_mass": _fields(dich.chart_mass),
            "words": dich.words_used,
            "consistent": dich.consistent,
            "detail": dich.detail,
        }
        ok = ok and dich.consistent
    payload["passed"] = ok
    return payload


def cmd_sgb(args):
    if args.vertices is not None:
        vertices = numeric_array(json.loads(args.vertices), (None, None))
        if vertices is None:
            raise SchemaError("--vertices must be a list of rows of finite "
                              "numbers, got %s" % args.vertices)
        simplex = simplex_from_vertices(vertices)
    elif args.random_simplex:
        dim = 2 if args.dim is None else args.dim
        check_dimension(dim)
        simplex = random_simplex(dim, np.random.default_rng(args.seed))
    else:
        raise GBError("give --random-simplex or --vertices")
    measure = _resolve_measure(args.measure or "round-mc", None, simplex.dim)
    pair = k_and_mass(simplex, measure, args.mc)
    k = k_value(simplex, measure, args.mc, pair=pair)
    residual = sgb_residual(simplex, measure, args.mc, pair=pair)
    if residual.samples and not pair.readings():
        raise InsufficientSamples(
            "no reading of %d samples lies in the %d-simplex or its antipode"
            % (args.mc.samples, simplex.dim))
    return {"dim": simplex.dim, "k": _fields(k),
            "residual": _fields(residual),
            "passed": residual.is_zero(args.tolerance)}


def cmd_angles(args):
    tri, measure = _document_and_measure(args)
    table = _tri.angle_table(tri, measure, args.mc)
    return {"angles": [{"face_dim": rec.dim, "face": rec.face,
                        "top": rec.top, "cut": list(rec.cut),
                        "angle": _fields(est)}
                       for rec, est in _tri.incidence_angles(tri, table)]}


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
        listed = _json_argument(name)
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
    return {"generators": len(generators),
            "regions": [{"region": r, "max_discrepancy": d, "passed": ok}
                        for r, (d, ok) in sorted(report.per_region().items())],
            "max_discrepancy": report.max_discrepancy,
            "passed": report.passed}


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
    data = _json_argument(args.input)
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
    verdicts["equivariance"] = equivariance_check(f, lam, coverings[0]).passed
    induced = induce_quotient(f, up)
    verdicts["quotient_roundtrip"] = pullback(
        f, induced, coverings[0]).same_as(up)
    return {"pulled_back": [[a, w] for a, w in up.atoms],
            "induced": [[a, w] for a, w in induced.atoms],
            "verdicts": verdicts, "passed": all(verdicts.values())}


def cmd_example(args):
    doc = _load_document(args.name, args)
    out = args.output or (args.name + ".json")
    with open(out, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return {"written": out}


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
    parser.add_argument("--seed", type=_non_negative_int)
    parser.add_argument("--samples", type=_positive_int)
    parser.add_argument("--tolerance", type=_number_from(
        0.0, "a finite number >= 0", float))
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    # the options of built-in documents, then the arguments of a document
    sized = argparse.ArgumentParser(add_help=False)
    sized.add_argument("--k", type=int, help="grid size for built-in grids")
    sized.add_argument("--m", type=int, help="arc count for s1-polygon")
    document = argparse.ArgumentParser(add_help=False, parents=[sized])
    document.add_argument("document", help="path or built-in name")
    document.add_argument("--measure")

    p = sub.add_parser("check", parents=[document],
                       help="full report on a manifold document")
    p.add_argument("--dichotomy", action="store_true",
                   help="also run the chart-union dichotomy check")
    p.add_argument("--orbit-depth", type=_non_negative_int, help=(
        "holonomy word length enlarging the chart union (default 0)"))
    p.set_defaults(func=cmd_check, reads=tuple(_GLOBALS))

    p = sub.add_parser("sgb", help="alternating angle sum of one simplex")
    p.add_argument("--random-simplex", action="store_true")
    p.add_argument("--dim", type=_non_negative_int,
                   help="dimension of the random simplex (default 2)")
    p.add_argument("--vertices", help="JSON rows of simplex vertices")
    p.add_argument("--measure")
    p.set_defaults(func=cmd_sgb, reads=tuple(_GLOBALS))

    p = sub.add_parser("angles", parents=[document],
                       help="angle table of a document")
    p.set_defaults(func=cmd_angles, reads=("seed", "samples"))

    p = sub.add_parser("invariance", help="measure invariance report")
    p.add_argument("--measure", required=True)
    p.add_argument("--group", required=True,
                   help="icosahedral | klein4 | cyclic:N | @matrices.json")
    p.add_argument("--dim", type=_non_negative_int, default=2)
    p.add_argument("--regions", type=_positive_int, default=20)
    p.set_defaults(func=cmd_invariance, reads=tuple(_GLOBALS))

    p = sub.add_parser("pullback", help="circle pull-back / quotient checks")
    p.add_argument("input",
                   help="JSON {degree, atoms, coverings} or @file.json")
    p.set_defaults(func=cmd_pullback, reads=())

    p = sub.add_parser("example", parents=[sized],
                       help="write a built-in document")
    p.add_argument("name", choices=sorted(BUILTIN_DOCUMENTS))
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_example, reads=())
    return parser


# parse_args leaves a parser as it found it, so every main call of a
# process reads this one; build_parser still makes a fresh one
_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        for key, default in _GLOBALS.items():
            if getattr(args, key) is None:
                setattr(args, key, default)
            elif key not in args.reads:
                raise SchemaError("--%s: command %r takes no --%s"
                                  % (key, args.command, key))
        for command, option, needs, other, detail in _CONFLICTS:
            if (args.command == command and _given(args, option)
                    and _given(args, other) != needs):
                raise SchemaError(detail)
        args.mc = MCConfig(seed=args.seed, samples=args.samples)
        payload = args.func(args)
        code = 0 if payload.get("passed", True) else 1
    except (GBError, OSError, json.JSONDecodeError) as err:
        payload, code = {"error": type(err).__name__, "detail": str(err)}, 2
    _emit(args, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())

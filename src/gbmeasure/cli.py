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
structured diagnostics.  Reports are byte-identical across runs for a
fixed RunConfig and inputs.
"""

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .documents import (BUILTIN_DOCUMENTS, builtin_document,
                        icosahedral_rotation_group, rotation_about)
from .errors import GBError
from .geom import ProjectiveMap, random_region, random_simplex
from .measure import (MCConfig, check_invariance, measure_from_spec)
from .pullback import (AdaptedCovering, CircleAtomicMeasure, PowerMap,
                       covering_independence, default_covering,
                       equivariance_check, induce_quotient, pullback)
from .simplex import k_value, sgb_residual
from .triangulation import dichotomy_check, gb_report, load
from . import triangulation as _tri


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    samples: int = 1_000_000
    tolerance: float = 1e-9
    fmt: str = "text"

    @property
    def mc(self):
        return MCConfig(seed=self.seed, samples=self.samples)


def _estimate_dict(est):
    return {"value": est.value, "std_error": est.std_error,
            "samples": est.samples}


def _emit(cfg, payload, text_lines):
    if cfg.fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _load_document(name_or_path, args):
    if name_or_path in BUILTIN_DOCUMENTS:
        params = {}
        if getattr(args, "k", None) is not None:
            params["k"] = args.k
        if getattr(args, "m", None) is not None:
            params["m"] = args.m
        return builtin_document(name_or_path, **params)
    with open(name_or_path) as fh:
        return json.load(fh)


def _resolve_measure(spec_arg, document, dim):
    """Measure from --measure (name, inline JSON or @file) or the document."""
    if spec_arg is None:
        if document is not None and document.get("measure") is not None:
            return measure_from_spec(document["measure"], dim)
        spec_arg = "round"
    if spec_arg.startswith("@"):
        with open(spec_arg[1:]) as fh:
            return measure_from_spec(json.load(fh), dim)
    if spec_arg.strip().startswith("{"):
        return measure_from_spec(json.loads(spec_arg), dim)
    named = _named_measure(spec_arg, document, dim)
    if named is None:
        raise GBError("unknown measure %r" % spec_arg)
    return measure_from_spec(named, dim)


def _named_measure(name, document, dim):
    if name == "round":
        return {"type": "round"}
    if name == "round-mc":
        return {"type": "round", "monte_carlo": True}
    if name == "infinity-line":
        basis = [[0.0] * (dim + 1) for _ in range(dim)]
        for i in range(dim):
            basis[i][i] = 1.0
        return {"type": "subsphere", "basis": basis}
    if name == "atomic-on-edge":
        # deliberately invalid: an atom on a developed codim-1 face
        if document is None:
            raise GBError("atomic-on-edge needs a document context")
        tri = load(document)
        rec = next(r for r in tri.incidences if r.dim == tri.dim - 1)
        dev = tri.developed[rec.top].vertices
        mid = sum(dev[p] for p in rec.positions)
        mid = mid / np.linalg.norm(mid)
        return {"type": "atomic",
                "atoms": [{"point": mid.tolist(), "weight": 2.0}]}
    return None


def _verdict_dict(v):
    return {"passed": v.passed, "worst": v.worst, "detail": v.detail}


def cmd_check(args, cfg):
    document = _load_document(args.document, args)
    tri = load(document)
    measure = _resolve_measure(args.measure, document, tri.dim)
    report = gb_report(tri, measure, cfg.mc, tol=cfg.tolerance)
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
        dich = dichotomy_check(tri, measure, mc=cfg.mc,
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
    _emit(cfg, payload, lines)
    return 0 if ok else 1


def cmd_sgb(args, cfg):
    rng = np.random.default_rng(cfg.seed)
    if args.vertices:
        from .geom import simplex_from_vertices
        simplex = simplex_from_vertices(json.loads(args.vertices))
    elif args.random_simplex:
        simplex = random_simplex(args.dim, rng)
    else:
        raise GBError("give --random-simplex or --vertices")
    measure = _resolve_measure(args.measure or "round-mc", None, simplex.dim)
    k = k_value(simplex, measure, cfg.mc)
    residual = sgb_residual(simplex, measure, cfg.mc, k=k)
    ok = abs(residual.value) <= max(cfg.tolerance, 4.0 * residual.std_error)
    payload = {"dim": simplex.dim, "k": _estimate_dict(k),
               "residual": _estimate_dict(residual), "passed": ok}
    _emit(cfg, payload, [
        "dim       = %d" % simplex.dim,
        "k         = %.9g (sigma %.3g)" % (k.value, k.std_error),
        "residual  = %.3g (sigma %.3g)" % (residual.value,
                                           residual.std_error),
        "verdict   : %s" % ("PASS" if ok else "FAIL")])
    return 0 if ok else 1


def cmd_angles(args, cfg):
    document = _load_document(args.document, args)
    tri = load(document)
    measure = _resolve_measure(args.measure, document, tri.dim)
    table = _tri.angle_table(tri, measure, cfg.mc)
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
    _emit(cfg, {"angles": entries}, lines)
    return 0


def _named_group(name, dim):
    if name == "icosahedral":
        return icosahedral_rotation_group()
    if name == "klein4":
        return [ProjectiveMap(np.diag(d))
                for d in ([1.0, 1, 1], [-1.0, -1, 1], [1.0, -1, -1],
                          [-1.0, 1, -1])]
    if name.startswith("cyclic:"):
        order = int(name.split(":", 1)[1])
        return [rotation_about([0.0, 0, 1], 2 * np.pi * j / order)
                for j in range(order)]
    if name.startswith("@"):
        with open(name[1:]) as fh:
            return [ProjectiveMap(np.asarray(m, dtype=float))
                    for m in json.load(fh)]
    raise GBError("unknown group %r" % name)


def cmd_invariance(args, cfg):
    measure = _resolve_measure(args.measure, None, args.dim)
    generators = _named_group(args.group, args.dim)
    rng = np.random.default_rng(cfg.seed)
    regions = [random_region(args.dim, rng, int(rng.integers(1, 4)))
               for _ in range(args.regions)]
    report = check_invariance(measure, generators, regions, cfg.mc,
                              exact_tol=cfg.tolerance)
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
    _emit(cfg, payload, lines)
    return 0 if report.passed else 1


def cmd_pullback(args, cfg):
    if args.input.startswith("@"):
        with open(args.input[1:]) as fh:
            data = json.load(fh)
    else:
        data = json.loads(args.input)
    f = PowerMap(int(data["degree"]))
    lam = CircleAtomicMeasure([(a, w) for a, w in data["atoms"]])
    coverings = [AdaptedCovering([(s, l) for s, l in arcs])
                 for arcs in data.get("coverings", [])]
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
    _emit(cfg, payload, lines)
    return 0 if ok else 1


def cmd_example(args, cfg):
    params = {}
    if args.k is not None:
        params["k"] = args.k
    if args.m is not None:
        params["m"] = args.m
    doc = builtin_document(args.name, **params)
    out = args.output or (args.name + ".json")
    with open(out, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _emit(cfg, {"written": out}, ["wrote %s" % out])
    return 0


def _non_negative_int(text):
    """argparse type: an integer >= 0, in decimal digits."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            "must be a non-negative integer, got %r" % text)
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gbm",
        description="Euler characteristic vs invariant-measure checks for "
                    "triangulated projective manifolds")
    parser.add_argument("--seed", type=_non_negative_int, default=0)
    parser.add_argument("--samples", type=int, default=1_000_000)
    parser.add_argument("--tolerance", type=float, default=1e-9)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="full report on a manifold document")
    p.add_argument("document", help="path or built-in name")
    p.add_argument("--measure")
    p.add_argument("--k", type=int, help="grid size for built-in grids")
    p.add_argument("--m", type=int, help="arc count for s1-polygon")
    p.add_argument("--dichotomy", action="store_true",
                   help="also run the chart-union dichotomy check")
    p.add_argument("--orbit-depth", type=int, default=0,
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
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--regions", type=int, default=20)
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
    cfg = RunConfig(seed=args.seed, samples=args.samples,
                    tolerance=args.tolerance, fmt=args.format)
    try:
        return args.func(args, cfg)
    except (GBError, OSError, ValueError, KeyError,
            json.JSONDecodeError) as err:
        diagnostic = {"error": type(err).__name__, "detail": str(err)}
        if cfg.fmt == "json":
            print(json.dumps(diagnostic, sort_keys=True, indent=2))
        else:
            print("ERROR %s: %s" % (diagnostic["error"],
                                    diagnostic["detail"]))
        return 2


if __name__ == "__main__":
    sys.exit(main())

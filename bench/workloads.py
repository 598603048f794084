"""The benchmark's workloads: gbm argv, the set-up calls, and output checks.

Every input is made from the workload seed, which is also passed to gbm as
``--seed``.  A workload's ``setup`` repeats the calls the CLI makes before
any angle is evaluated, so that their time can be measured on its own.
"""

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gbmeasure.documents import builtin_document
from gbmeasure.geom import random_simplex
from gbmeasure.measure import measure_from_spec
from gbmeasure.triangulation import load

ROUND_MC = {"type": "round", "monte_carlo": True}
Z_LIMIT = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    argv: list                # gbm argv after the global --seed/--format
    setup: Callable           # () -> dict of the objects the CLI builds
    check_setup: Callable     # setup dict -> list of failure messages
    check_report: Callable    # parsed JSON report -> list of failures
    headline: str             # report key whose std_error is the error bar


def _document_setup(name, spec, **params):
    def setup():
        tri = load(builtin_document(name, **params))
        return {"tri": tri, "measure": measure_from_spec(spec, tri.dim)}
    return setup


def _verdict_failures(report):
    return ["verdict %s failed: %s" % (key, v.get("detail"))
            for key, v in sorted(report["verdicts"].items())
            if not v["passed"]]


def _expect(cond, message):
    return [] if cond else [message]


def _mc_octahedron(seed):
    def check(report):
        mu = report["mu"]
        return (_expect(report["chi"] == 2, "chi %r != 2" % report["chi"])
                + _expect(mu["std_error"] > 0.0, "mu has no error bar")
                + _expect(abs(mu["value"] - 2.0)
                          <= Z_LIMIT * mu["std_error"],
                          "|mu - 2| = %g > 4 sigma" % abs(mu["value"] - 2.0))
                + _verdict_failures(report)
                + _expect(report["dichotomy"]["consistent"],
                          "dichotomy inconsistent"))

    return Workload(
        "mc-octahedron",
        ["--samples", "1000000", "check", "s2-octahedron",
         "--measure", "round-mc", "--dichotomy"],
        _document_setup("s2-octahedron", ROUND_MC),
        lambda objs: _expect(len(objs["tri"].tops) == 8, "octahedron tops"),
        check, "mu")


def _mc_sgb_dim4(seed):
    def setup():
        simplex = random_simplex(4, np.random.default_rng(seed))
        return {"simplex": simplex,
                "measure": measure_from_spec(ROUND_MC, simplex.dim)}

    def check(report):
        res = report["residual"]
        return (_expect(report["dim"] == 4, "dim %r != 4" % report["dim"])
                + _expect(res["std_error"] > 0.0, "residual has no error bar")
                + _expect(abs(res["value"]) <= Z_LIMIT * res["std_error"],
                          "|residual| = %g > 4 sigma" % abs(res["value"])))

    return Workload(
        "mc-sgb-dim4",
        ["--samples", "250000", "sgb", "--random-simplex", "--dim", "4"],
        setup,
        lambda objs: _expect(objs["simplex"].dim == 4, "simplex dim"),
        check, "residual")


# workload name -> factory building it with its inputs drawn from a seed
WORKLOADS = {
    "mc-octahedron": _mc_octahedron,
    "mc-sgb-dim4": _mc_sgb_dim4,
}


def check_output(workload, rc, text):
    """Failure messages for one gbm invocation (empty when correct)."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        report = None
    if not isinstance(report, dict):
        return ["exit code %r, output is not one JSON report: %r"
                % (rc, text[-200:])]
    if "error" in report:
        return ["exit code %r, %s: %s" % (rc, report["error"],
                                         report.get("detail"))]
    failures = [] if rc == 0 else ["exit code %r" % (rc,)]
    try:
        failures += workload.check_report(report)
    except (KeyError, TypeError) as err:
        failures.append("report lacks an expected field: %r" % (err,))
    if report.get("passed") is not True:
        failures.append("report says passed = %r" % report.get("passed"))
    return failures

"""Benchmark of the ``gbm`` command line on fixed, seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py; bench/README.md gives their argv
and the layers each one loads.  gbm runs in process, through
``gbmeasure.cli.main`` on the unmodified sources in ``src/``.  A run is one
fresh process pinned to one thread (``GBM_THREADS=1`` and single-threaded
BLAS), so peak RSS belongs to one workload and no thread pool starts.

--trace 0 (end-to-end metrics, tracing off):
  setup_s      the set-up calls of the workload timed on their own,
               median over samples taken before every invocation;
  check_s      wall time of one gbm invocation, median over the repeats
               that fit in S seconds (at least three);
  peak_rss_mb  peak resident set of this process.
--trace 1 (per-layer metrics): untraced and traced invocations alternate
  for about S seconds; the traced ones run under the spans of spans.py.
  Each metric is the median over the traced invocations.

Every invocation's output is checked, and every report of a run must be
byte-identical to the first, traced ones included.  The last stdout line
is the result {"correct", "attempted", "failed", "metrics"}; "attempted"
counts the gbm invocations plus the one checked set-up.  The line before
it records the seed, the gbm argv, the machine and every timing.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = ROOT / "src" / "gbmeasure"

MIN_REPEATS = 3           # untraced invocations per run, for a median
SETUP_STEP_S = 0.25       # set-up time measured before each invocation
ERROR_TARGET = 1e-3       # error bar of measure.mc_time_to_1e-3_s


def _pin_threads():
    """One thread everywhere; must run before numpy is imported."""
    os.environ["GBM_THREADS"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_program():
    if not (PROGRAM / "__init__.py").is_file():
        raise SystemExit("bench: gbm sources not found at %s" % PROGRAM)
    sys.path.insert(0, str(PROGRAM.parent))
    import gbmeasure
    if Path(gbmeasure.__file__).resolve().parent != PROGRAM.resolve():
        raise SystemExit("bench: imported gbmeasure from %s, not %s"
                         % (gbmeasure.__file__, PROGRAM))


def _invoke(main, argv):
    """(exit code, stdout, wall seconds) of one in-process gbm call."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        traceback.print_exc()
        rc = "uncaught exception"
    return rc, out.getvalue(), time.perf_counter() - start


def _repeat(step, seconds, minimum):
    """Durations of step(): at least minimum calls, then while one fits."""
    durations = []
    start = time.perf_counter()
    while (len(durations) < minimum
           or time.perf_counter() - start + statistics.median(durations)
           <= seconds):
        durations.append(step())
    return durations


class Outcomes:
    """Checked operations of one run, and the first report for identity."""

    def __init__(self, workload, check_output):
        self.workload = workload
        self.check_output = check_output
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.reference = None

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend("%s: %s" % (label, p) for p in problems)

    def record_invocation(self, label, rc, text, extra=()):
        problems = self.check_output(self.workload, rc, text) + list(extra)
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            problems.append("report differs from the run's first report")
        self.record(label, problems)

    def headline_std_error(self):
        try:
            report = json.loads(self.reference)
            return float(report[self.workload.headline]["std_error"])
        except (TypeError, ValueError, KeyError):
            return 0.0


def _checked_setup(workload, outcomes):
    """First set-up call, checked; whether it ran at all."""
    try:
        objs = workload.setup()
    except Exception:
        traceback.print_exc()
        outcomes.record("setup", ["set-up raised"])
        return False
    outcomes.record("setup", workload.check_setup(objs))
    return True


def _setup_sample(workload):
    """Seconds per set-up, over repeats filling at least SETUP_STEP_S."""
    count = 0
    start = time.perf_counter()
    while not count or time.perf_counter() - start < SETUP_STEP_S:
        workload.setup()
        count += 1
    return (time.perf_counter() - start) / count


def _end_to_end(workload, argv, seconds, outcomes, log):
    """Set-up samples and invocations alternate, so that both medians
    cover the same stretch of a machine whose speed drifts.  A set-up
    sample averages over SETUP_STEP_S: the speed of a shared machine flips
    between two levels within a second, and a median of shorter samples
    would jump between them."""
    from gbmeasure import cli
    set_up = _checked_setup(workload, outcomes)
    setup, checks = [], []

    def step():
        start = time.perf_counter()
        if set_up:
            setup.append(_setup_sample(workload))
        rc, text, elapsed = _invoke(cli.main, argv)
        outcomes.record_invocation("invocation", rc, text)
        checks.append(elapsed)
        return time.perf_counter() - start

    _repeat(step, seconds, MIN_REPEATS)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log.update(setup_samples_s=setup, check_samples_s=checks)
    return {"check_s": (statistics.median(checks), "s"),
            "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
            "peak_rss_mb": (peak_mb, "MB")}


def _per_layer(workload, argv, seconds, outcomes, log):
    from gbmeasure import cli
    from spans import LAYER_UNITS, Tracer, installed
    _checked_setup(workload, outcomes)
    untraced, traced, layers = [], [], []
    summary = {}

    def pair():
        rc, text, plain_s = _invoke(cli.main, argv)
        outcomes.record_invocation("untraced", rc, text)
        tracer = Tracer()
        with installed(tracer):
            rc, text, traced_s = _invoke(
                lambda a: tracer.timed("cli.main", cli.main, a)[0], argv)
        outcomes.record_invocation("traced", rc, text,
                                   tracer.accounting_failures())
        untraced.append(plain_s)
        traced.append(traced_s)
        layers.append(tracer.layer_metrics())
        summary.update(tracer.summary())    # the last traced invocation
        return plain_s + traced_s

    _repeat(pair, seconds, 1)
    check_s = statistics.median(untraced)
    std_error = outcomes.headline_std_error()
    metrics = {name: (statistics.median(m[name] for m in layers), unit)
               for name, unit in LAYER_UNITS.items()}
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / check_s - 1.0, "ratio")
    metrics["measure.mc_stderr"] = (std_error, "1")
    metrics["measure.mc_time_to_1e-3_s"] = (
        check_s * (std_error / ERROR_TARGET) ** 2, "s")
    log.update(untraced_samples_s=untraced, traced_samples_s=traced,
               spans_calls_total_self_s=summary)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    _pin_threads()
    _import_program()
    import numpy
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    gbm_argv = ["--seed", str(args.seed), "--format", "json"] + workload.argv
    outcomes = Outcomes(workload, workloads.check_output)
    log = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
           "gbm_argv": gbm_argv, "nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "gbm_threads": os.environ["GBM_THREADS"]}
    run = _per_layer if args.trace else _end_to_end
    metrics = run(workload, gbm_argv, args.seconds, outcomes, log)
    log.update(attempted=outcomes.attempted, failed=outcomes.failed,
               failed_frac=outcomes.failed / outcomes.attempted,
               headline_std_error=outcomes.headline_std_error(),
               failures=outcomes.messages[:20])
    for message in outcomes.messages:
        print("bench: FAILED %s" % message, file=sys.stderr)
    print(json.dumps(log, sort_keys=True))
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

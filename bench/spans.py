"""Spans and counters around gbm's layer calls, for the traced run only.

Wrappers replace the module globals that gbmeasure looks up at call time
(``gbmeasure.cli.load``, ``gbmeasure.simplex.angle``, ...) and are removed
again afterwards, so the program itself runs unmodified.  The wrapped
``measure_from_spec`` returns a delegating proxy that records ``eval``,
``union_mass`` and ``support_subspaces``.  Spans stay in memory; the
per-layer metrics are computed from them after the invocation ends.

The tracer keeps one span stack, so it assumes the single-threaded run that
``GBM_THREADS=1`` gives.
"""

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from gbmeasure import cli, measure, simplex, triangulation

# (module, global name, span name); simplex.angle sits under two modules
_WRAPPED = (
    (cli, "builtin_document", "documents.builtin_document"),
    (cli, "load", "triangulation.load"),
    (cli, "gb_report", "triangulation.gb_report"),
    (cli, "k_value", "simplex.k_value"),
    (cli, "sgb_residual", "simplex.sgb_residual"),
    (triangulation, "angle_table", "triangulation.angle_table"),
    (triangulation, "transversality_check",
     "triangulation.transversality_check"),
    (triangulation, "angle", "simplex.angle"),
    (simplex, "angle", "simplex.angle"),
    (simplex, "face_region", "geom.face_region"),
    (triangulation, "apply_map", "geom.apply_map"),
    (measure, "derive_seed", "util.derive_seed"),
)

LAYER_UNITS = {
    "documents.build_s": "s",
    "triangulation.load_s": "s",
    "measure.build_s": "s",
    "measure.eval_calls": "count",
    "measure.eval_mc_calls": "count",
    "measure.eval_s": "s",
    "measure.mc_samples": "count",
    "measure.mc_samples_per_s": "1/s",
    "measure.sign_tests": "count",
    "measure.kernel_bytes_computed": "B",
    "measure.union_calls": "count",
    "measure.union_s": "s",
    "triangulation.union_regions": "count",
    "measure.support_subspaces_s": "s",
    "triangulation.transversality_s": "s",
    "simplex.angle_calls": "count",
    "simplex.angle_self_s": "s",
    "triangulation.angle_table_self_s": "s",
    "triangulation.gb_report_self_s": "s",
    "simplex.sgb_s": "s",
    "triangulation.dichotomy_self_s": "s",
    "triangulation.holonomy_words": "count",
    "geom.face_region_s": "s",
    "geom.apply_map_s": "s",
    "util.derive_seed_calls": "count",
    "util.derive_seed_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
}


class Tracer:
    """Spans [name, start_ns, end_ns, parent index] and named counters."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []

    def timed(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span; returns (result, span ns)."""
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()
        return result, rec[2] - rec[1]

    def self_ns(self):
        """Per span: its duration minus the durations of its children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def accounting_failures(self):
        """Children inside parents, and self times summing to the root."""
        failures = []
        roots = [i for i, rec in enumerate(self.spans) if rec[3] < 0]
        if len(roots) != 1:
            return ["%d root spans, expected 1" % len(roots)]
        for name, start, end, parent in self.spans:
            if parent >= 0:
                _, p_start, p_end, _ = self.spans[parent]
                if not p_start <= start <= end <= p_end:
                    failures.append("span %s lies outside its parent %s"
                                    % (name, self.spans[parent][0]))
        root = self.spans[roots[0]]
        if sum(self.self_ns()) != root[2] - root[1]:
            failures.append("self times do not sum to the root span")
        return failures

    def layer_metrics(self):
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        for rec, self_ns in zip(self.spans, self.self_ns()):
            total[rec[0]] += (rec[2] - rec[1]) / 1e9
            own[rec[0]] += self_ns / 1e9
            calls[rec[0]] += 1
        c = self.counters
        mc_s = c["mc_ns"] / 1e9
        return {
            "documents.build_s": total["documents.builtin_document"],
            "triangulation.load_s": total["triangulation.load"],
            "measure.build_s": total["measure.measure_from_spec"],
            "measure.eval_calls": calls["measure.eval"],
            "measure.eval_mc_calls": c["eval_mc_calls"],
            "measure.eval_s": total["measure.eval"],
            "measure.mc_samples": c["mc_samples"],
            "measure.mc_samples_per_s":
                c["mc_samples"] / mc_s if mc_s else 0.0,
            "measure.sign_tests": c["sign_tests"],
            "measure.kernel_bytes_computed": c["kernel_bytes"],
            "measure.union_calls": calls["measure.union_mass"],
            "measure.union_s": total["measure.union_mass"],
            "triangulation.union_regions": c["union_regions"],
            "measure.support_subspaces_s":
                total["measure.support_subspaces"],
            "triangulation.transversality_s":
                total["triangulation.transversality_check"],
            "simplex.angle_calls": calls["simplex.angle"],
            "simplex.angle_self_s": own["simplex.angle"],
            "triangulation.angle_table_self_s":
                own["triangulation.angle_table"],
            "triangulation.gb_report_self_s": own["triangulation.gb_report"],
            "simplex.sgb_s":
                total["simplex.k_value"] + total["simplex.sgb_residual"],
            "triangulation.dichotomy_self_s":
                own["triangulation.dichotomy_check"],
            "triangulation.holonomy_words": c["holonomy_words"],
            "geom.face_region_s": total["geom.face_region"],
            "geom.apply_map_s": total["geom.apply_map"],
            "util.derive_seed_calls": calls["util.derive_seed"],
            "util.derive_seed_s": total["util.derive_seed"],
            "cli.main_s": total["cli.main"],
            "cli.self_s": own["cli.main"],
        }

    def summary(self):
        """Span name -> [calls, total s, self s], for the run's log."""
        out = {}
        for rec, self_ns in zip(self.spans, self.self_ns()):
            row = out.setdefault(rec[0], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += (rec[2] - rec[1]) / 1e9
            row[2] += self_ns / 1e9
        return out


class MeasureProxy:
    """Delegates to a measure and records its evaluation calls.

    Kernel counters: a Monte Carlo call sign-tests samples x bounding
    planes and computes samples x (n+1) x 8 bytes of sample coordinates;
    an atomic call sign-tests sphere atoms x bounding planes.
    """

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def eval(self, region, mc=None):
        est, ns = self._tracer.timed("measure.eval", self._inner.eval,
                                     region, mc)
        if est.samples:
            self._tracer.counters["eval_mc_calls"] += 1
        self._count_kernel(est, len(region.normals), ns)
        return est

    def union_mass(self, regions, mc=None):
        regions = list(regions)
        est, ns = self._tracer.timed("measure.union_mass",
                                     self._inner.union_mass, regions, mc)
        self._tracer.counters["union_regions"] += len(regions)
        self._count_kernel(est, sum(len(r.normals) for r in regions), ns)
        return est

    def support_subspaces(self):
        return self._tracer.timed("measure.support_subspaces",
                                  self._inner.support_subspaces)[0]

    def _count_kernel(self, est, planes, ns):
        c = self._tracer.counters
        if est.samples:
            c["mc_samples"] += est.samples
            c["sign_tests"] += est.samples * planes
            c["kernel_bytes"] += est.samples * (self._inner.dim + 1) * 8
            c["mc_ns"] += ns
        else:
            atoms = getattr(self._inner, "points", None)
            if atoms is not None:
                c["sign_tests"] += len(atoms) * planes


def _span_wrapper(tracer, name, fn):
    def wrapper(*args, **kwargs):
        return tracer.timed(name, fn, *args, **kwargs)[0]
    return wrapper


@contextmanager
def installed(tracer):
    """Wrap gbm's layer entry points with spans of tracer, then restore."""
    saved = []

    def patch(module, attr, wrapper):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    for module, attr, name in _WRAPPED:
        patch(module, attr, _span_wrapper(tracer, name,
                                          getattr(module, attr)))
    build, dichotomy = cli.measure_from_spec, cli.dichotomy_check

    def measure_from_spec(spec, dim):
        built = tracer.timed("measure.measure_from_spec", build, spec, dim)[0]
        return MeasureProxy(built, tracer)

    def dichotomy_check(*args, **kwargs):
        report = tracer.timed("triangulation.dichotomy_check", dichotomy,
                              *args, **kwargs)[0]
        tracer.counters["holonomy_words"] += report.words_used
        return report

    patch(cli, "measure_from_spec", measure_from_spec)
    patch(cli, "dichotomy_check", dichotomy_check)
    try:
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

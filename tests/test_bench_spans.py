"""The traced benchmark wraps CLI globals by name; keep those names alive."""

import importlib.util
from pathlib import Path

import pytest

from gbmeasure import cli

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, layers", [
    # an exact table is two eval_many calls, which the proxy forwards
    # untraced
    (["sgb", "--random-simplex", "--dim", "2", "--measure", "round"],
     {"simplex.k_value", "simplex.sgb_residual"}),
    # a sampled table is one eval_many call, which the proxy forwards
    # untraced; the union kernel stays traced
    (["check", "s2-octahedron", "--measure", "round-mc", "--dichotomy"],
     {"documents.builtin_document", "triangulation.load",
      "triangulation.gb_report", "triangulation.angle_table",
      "triangulation.transversality_check",
      "triangulation.dichotomy_check", "measure.union_mass"}),
    # an invariance check is one eval_many call, which the proxy forwards
    # untraced; it derives its one seed through the wrapped derive_seed
    (["invariance", "--measure", "round", "--group", "klein4",
      "--regions", "3"],
     {"measure.measure_from_spec", "util.derive_seed"}),
], ids=["sgb", "check", "invariance"])
def test_traced_cli_invocation(spans, capsys, argv, layers):
    tracer = spans.Tracer()
    with spans.installed(tracer):
        code, _ = tracer.timed("cli.main", cli.main,
                               ["--samples", "2000"] + argv)
    capsys.readouterr()
    assert code == 0
    assert tracer.accounting_failures() == []
    assert layers <= {rec[0] for rec in tracer.spans}
    assert tracer.layer_metrics()["cli.main_s"] > 0.0

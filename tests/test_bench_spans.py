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
    (["sgb", "--random-simplex", "--dim", "2"],
     {"simplex.k_value", "simplex.sgb_residual", "simplex.angle",
      "measure.eval"}),
    (["check", "s2-octahedron", "--measure", "round-mc"],
     {"documents.builtin_document", "triangulation.load",
      "triangulation.gb_report", "triangulation.angle_table",
      "triangulation.transversality_check", "simplex.angle",
      "measure.eval"}),
], ids=["sgb", "check"])
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

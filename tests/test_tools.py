"""tools/compare_reports.py sizes a report change in standard errors and
in absolute terms."""

import importlib.util
import json
import math
from pathlib import Path

TOOL = (Path(__file__).resolve().parent.parent / "tools"
        / "compare_reports.py")


def _tool():
    spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_estimate_shift_is_the_largest_over_paired_estimates():
    shift = _tool().estimate_shift
    old = {"mu": {"value": 2.0, "std_error": 0.01, "samples": 9},
           "angles": [{"angle": {"value": 0.5, "std_error": 0.02}},
                      {"angle": {"value": 1.0, "std_error": 0.0}}],
           "passed": True}
    new = json.loads(json.dumps(old))
    new["mu"]["value"] = 2.005
    new["angles"][0]["angle"].update(value=0.53, std_error=0.03)
    assert math.isclose(shift(json.dumps(old), json.dumps(new)), 1.0)
    new["angles"][1]["angle"]["value"] = 0.9    # an exact value moved
    assert shift(json.dumps(old), json.dumps(new)) == math.inf
    assert shift(json.dumps(old), json.dumps(old)) == 0.0
    assert shift('{"max_discrepancy": 0.1}', '{"max_discrepancy": 0.2}') is None
    assert shift("ERROR", "ERROR") is None


def test_largest_change_sizes_rounding_and_diagnostics():
    change = _tool().largest_change
    old = {"mu": {"value": 2.0, "std_error": 0.0, "samples": 0},
           "verdicts": {"link_sums": {"passed": True, "worst": 1e-15}},
           "rearrangement_residual": 0.0, "passed": True}
    new = json.loads(json.dumps(old))
    new["mu"]["value"] = math.nextafter(2.0, 3.0)   # an exact value, an ulp
    new["passed"] = False                             # not a number
    assert _tool().estimate_shift(json.dumps(old), json.dumps(new)) == (
        math.inf)
    assert change(json.dumps(old), json.dumps(new)) == math.ulp(2.0)
    new["verdicts"]["link_sums"]["worst"] = 3e-15
    assert math.isclose(change(json.dumps(old), json.dumps(new)), 2e-15)
    new["rearrangement_residual"] = -1e-13
    assert change(json.dumps(old), json.dumps(new)) == 1e-13
    assert change(json.dumps(old), json.dumps(old)) == 0.0
    # two diagnostics of one type compare the numbers in their details
    detail = ("chi = 0 but the chart union carries certified mass %s "
              "(invariance assumptions violated)")
    a, b = ({"error": "InconsistentDichotomy", "detail": detail % mass}
            for mass in ("0.482", "0.4815"))
    assert math.isclose(change(json.dumps(a), json.dumps(b)), 5e-4)
    assert _tool().estimate_shift(json.dumps(a), json.dumps(b)) is None
    assert change(json.dumps(a), json.dumps(dict(b, error="SchemaError"))) is (
        None)
    assert change("ERROR", "ERROR") is None

"""tools/compare_reports.py sizes a report change in standard errors."""

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

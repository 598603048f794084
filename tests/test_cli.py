import contextlib
import copy
import io
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from gbmeasure import _util, cli, errors, measure
from gbmeasure.cli import main
from gbmeasure.documents import builtin_document


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_check_octahedron_round(capsys):
    code, out = run(capsys, "check", "s2-octahedron", "--measure", "round")
    assert code == 0
    assert "chi (combinatorial) = 2" in out
    assert "PASS" in out


def test_check_torus_infinity_line(capsys):
    code, out = run(capsys, "--format", "json", "check", "t2-grid", "--k",
                    "3", "--measure", "infinity-line")
    assert code == 0
    payload = json.loads(out)
    assert payload["chi"] == 0
    assert payload["mu"]["value"] == 0.0
    assert payload["passed"]


def test_check_atomic_on_edge_fails_with_diagnostic(capsys):
    code, out = run(capsys, "check", "rp2-icosahedral", "--measure",
                    "atomic-on-edge")
    assert code == 2
    assert "BoundaryAtom" in out
    assert "face" in out


def test_check_json_reports_are_byte_identical(capsys):
    args = ("--format", "json", "--seed", "11", "--samples", "20000",
            "check", "s2-octahedron", "--measure", "round-mc")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


def test_check_dichotomy_flag(capsys):
    code, out = run(capsys, "--samples", "20000", "check", "rp2-icosahedral",
                    "--measure", "round", "--dichotomy")
    assert code == 0
    assert "dichotomy" in out


def test_sgb_random_simplex(capsys):
    code, out = run(capsys, "--seed", "7", "--samples", "50000", "sgb",
                    "--random-simplex", "--dim", "2")
    assert code == 0
    assert "residual" in out


def test_sgb_evaluates_each_region_once(capsys, monkeypatch):
    evaluated = []
    build = cli.measure_from_spec

    class Counting:
        def __init__(self, inner):
            self.inner = inner
            self.dim = inner.dim

        def eval(self, region, mc=None):
            evaluated.append(region)
            return self.inner.eval(region, mc)

        def eval_many(self, regions, mc=None):
            evaluated.extend(regions)
            return self.inner.eval_many(regions, mc)

    monkeypatch.setattr(cli, "measure_from_spec",
                        lambda spec, dim: Counting(build(spec, dim)))
    code, _ = run(capsys, "--samples", "2000", "sgb", "--random-simplex",
                  "--dim", "4")
    assert code == 0
    assert len(evaluated) == 1


def test_sgb_negative_dim_is_rejected(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sgb", "--random-simplex", "--dim", "-1"])
    assert exit_info.value.code == 2
    assert "argument --dim: must be a non-negative integer" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("command", [
    ["check", "s2-octahedron", "--measure", "round-mc"],
    ["sgb", "--random-simplex"]])
def test_negative_seed_is_rejected_by_every_subcommand(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main(["--seed", "-1", "--samples", "1000"] + command)
    assert exit_info.value.code == 2
    assert "argument --seed: must be a non-negative integer" in (
        capsys.readouterr().err)


def test_sgb_exact_octant(capsys):
    code, out = run(capsys, "--format", "json", "sgb", "--vertices",
                    "[[1,0,0],[0,1,0],[0,0,1]]", "--measure", "round")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["k"]["value"] - 0.25) < 1e-12
    assert payload["residual"]["value"] == 0.0


def test_angles_table(capsys):
    code, out = run(capsys, "--format", "json", "angles", "s2-octahedron")
    assert code == 0
    entries = json.loads(out)["angles"]
    vertex_angles = [e for e in entries if e["face_dim"] == 0]
    assert vertex_angles
    assert all(abs(e["angle"]["value"] - 0.25) < 1e-12
               for e in vertex_angles)


def test_invariance_round_icosahedral(capsys):
    code, out = run(capsys, "invariance", "--measure", "round", "--group",
                    "icosahedral", "--regions", "5")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("args, option", [
    (["--group", "cyclic:0"], "--group"),
    (["--group", "cyclic:-2"], "--group"),
    (["--group", "@EMPTY"], "--group"),
    (["--group", "klein4", "--regions", "0"], "--regions"),
    (["--group", "klein4", "--regions", "-3"], "--regions"),
], ids=["cyclic-0", "cyclic-negative", "empty-file", "regions-0",
        "regions-negative"])
def test_invariance_without_comparisons_is_rejected(tmp_path, capsys, args,
                                                    option):
    empty = tmp_path / "group.json"
    empty.write_text("[]")
    args = [a.replace("@EMPTY", "@%s" % empty) for a in args]
    code, out = run(capsys, "invariance", "--measure", "round", *args)
    assert code == 2
    assert option in out
    assert "PASS" not in out


def test_invariance_failure(capsys):
    # an atom off the rotation axis cannot be invariant under cyclic:5
    spec = json.dumps({"type": "atomic",
                       "atoms": [{"point": [1.0, 0.2, 0.3], "weight": 2.0}]})
    code, out = run(capsys, "--seed", "3", "invariance", "--measure", spec,
                    "--group", "cyclic:5", "--regions", "4")
    assert code in (1, 2)  # FAIL or a boundary-atom diagnostic


def test_pullback_command(capsys):
    payload = json.dumps({"degree": 3, "atoms": [[0.0, 1.0]]})
    code, out = run(capsys, "--format", "json", "pullback", payload)
    assert code == 0
    data = json.loads(out)
    assert len(data["pulled_back"]) == 3
    assert data["verdicts"]["equivariance"]
    assert data["verdicts"]["quotient_roundtrip"]


def test_example_writes_document(tmp_path, capsys):
    out_path = tmp_path / "torus.json"
    code, _ = run(capsys, "example", "t2-grid", "--k", "4", "-o",
                  str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["faces"]["2"]) == 32


def test_unknown_measure_is_structured_error(capsys):
    code, out = run(capsys, "check", "s2-octahedron", "--measure", "bogus")
    assert code == 2
    assert "ERROR" in out


def test_missing_document_is_structured_error(capsys):
    code, out = run(capsys, "check", "/no/such/file.json")
    assert code == 2
    assert "ERROR" in out


@pytest.mark.parametrize("path, value", [
    (("developed",), 5),
    (("faces", "1"), 7),
    (("holonomy_generators",), [[[1.0, 0.0], [0.0, 1.0]]]),
    (("pairings",), [{"face": 0, "simplex_a": 0, "simplex_b": 1,
                      "matrix": [[1.0, 0.0], [0.0, 1.0]]}]),
], ids=["developed-int", "face-level-int", "holonomy-2x2", "pairing-2x2"])
def test_malformed_document_is_schema_error(tmp_path, capsys, path, value):
    document = builtin_document("s2-octahedron")
    target = document
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(document))
    code, out = run(capsys, "--format", "json", "check", str(doc_path))
    assert code == 2
    assert issubclass(getattr(errors, json.loads(out)["error"]),
                      errors.SchemaError)


def test_malformed_mixture_is_schema_error(capsys):
    spec = json.dumps({"type": "mixture", "components": 3})
    code, out = run(capsys, "--format", "json", "check", "s2-octahedron",
                    "--measure", spec)
    assert code == 2
    assert json.loads(out)["error"] == "SchemaError"


@pytest.mark.parametrize("spec, field", [
    ({"type": "atomic"}, "atoms"),
    ({"type": "mixture"}, "components"),
    ({"type": "orbit", "seed_point": [1, 0, 0]}, "generators"),
    ({"type": "subsphere"}, "basis"),
    ({"type": "orbit", "seed_point": [1, 0, 0],
      "generators": [[[1, 0], [0, 1]]]}, "generators"),
    ({"type": "orbit", "seed_point": [1, 0],
      "generators": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}, "seed_point"),
], ids=["atomic", "mixture", "orbit", "subsphere", "orbit-generator-shape",
        "orbit-seed-length"])
def test_missing_measure_field_is_schema_error(capsys, spec, field):
    code, out = run(capsys, "--format", "json", "check", "s2-octahedron",
                    "--measure", json.dumps(spec))
    assert code == 2
    diagnostic = json.loads(out)
    assert diagnostic["error"] == "SchemaError"
    assert spec["type"] in diagnostic["detail"]
    assert repr(field) in diagnostic["detail"]


@pytest.mark.parametrize("spec, field", [
    ({"type": "atomic", "atoms": []}, "atoms"),
    ({"type": "atomic", "atoms": [{"point": [1, 2], "weight": 2}]}, "point"),
    ({"type": "orbit", "seed_point": [1, 0, 0],
      "generators": [[[1, 0, 0], [0, 1]]]}, "generators"),
    ({"type": "orbit", "seed_point": [1, [0], 0], "generators": []},
     "seed_point"),
    ({"type": "subsphere", "basis": [[1, 0, 0], [0, 1]]}, "basis"),
], ids=["atoms-empty", "point-length", "generators-ragged",
        "seed-point-ragged", "basis-ragged"])
def test_malformed_measure_array_names_the_field(capsys, spec, field):
    code, out = run(capsys, "--format", "json", "check", "s2-octahedron",
                    "--measure", json.dumps(spec))
    assert code == 2
    diagnostic = json.loads(out)
    assert diagnostic["error"] == "SchemaError"
    assert repr(field) in diagnostic["detail"]


def _builtin_measure_specs():
    """The named measures on s2-octahedron, and one spec of each composite
    type built from them."""
    document = builtin_document("s2-octahedron")
    named = [cli._named_measure(name, document, 2) for name in
             ("round", "round-mc", "infinity-line", "atomic-on-edge")]
    turn = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    return named + [
        {"type": "mixture", "components": [
            {"weight": 0.5, "measure": named[1]},
            {"weight": 0.5, "measure": named[2]}]},
        {"type": "restricted", "base": named[0],
         "region": [[0.0, 0.6, 0.8], [0.8, 0.0, 0.6]]},
        {"type": "restricted", "base": named[0],
         "subspace": named[2]["basis"]},
        {"type": "orbit", "seed_point": [0.6, 0.1, 0.8], "generators": [turn],
         "max_orbit": 10}]


_OPTIONAL_FIELDS = {"monte_carlo", "max_orbit", "dim"}
_MAY_BE_EMPTY = {"generators", "region"}   # the seed's Dirac mass; all S^n


def _malforming_mutations(node, path=()):
    """(path, mutation) pairs, each of which makes a valid spec malformed:
    drop a required field, empty a list, make a list ragged, or make a
    vector one too short or too long."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key not in _OPTIONAL_FIELDS:
                yield path + (key,), "drop"
            yield from _malforming_mutations(value, path + (key,))
    elif isinstance(node, list) and node:
        if path[-1] not in _MAY_BE_EMPTY:
            yield path, "empty"
        if all(isinstance(x, (int, float)) for x in node):
            yield from ((path, m) for m in ("ragged", "short", "long"))
        elif all(isinstance(x, list) for x in node):
            yield path, "ragged"
        for i, value in enumerate(node):
            yield from _malforming_mutations(value, path + (i,))


def _mutated(spec, path, mutation):
    spec = copy.deepcopy(spec)
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    if mutation == "drop":
        del parent[path[-1]]
    elif mutation == "empty":
        node.clear()
    elif mutation == "ragged":
        node[0] = [node[0]] if not isinstance(node[0], list) else node[0][:-1]
    elif mutation == "short":
        node.pop()
    else:
        node.append(0.5)
    return spec


_MALFORMED_SPECS = [(spec, path, mutation)
                    for spec in _builtin_measure_specs()
                    for path, mutation in _malforming_mutations(spec)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_MALFORMED_SPECS))
def test_malformed_measure_spec_is_a_named_error(case):
    spec, path, mutation = case
    argv = ["--format", "json", "--samples", "2000", "check",
            "s2-octahedron", "--measure",
            json.dumps(_mutated(spec, path, mutation))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 2, (path, mutation)
    error = getattr(errors, json.loads(out.getvalue())["error"], None)
    assert error is not None and issubclass(error, errors.GBError)


def test_thread_pools_do_not_nest(capsys, monkeypatch):
    lock = threading.Lock()
    busy = {"now": 0, "peak": 0, "items": 0}   # worker threads running items

    class Recording(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            def run_item(*a, **kw):
                with lock:
                    busy["now"] += 1
                    busy["items"] += 1
                    busy["peak"] = max(busy["peak"], busy["now"])
                try:
                    return fn(*a, **kw)
                finally:
                    with lock:
                        busy["now"] -= 1
            return super().submit(run_item, *args, **kwargs)

    monkeypatch.setattr(_util, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(measure, "_BLOCK", 1000)
    # a mixture is read cut set by cut set on a pool, and each reading
    # draws three sample blocks, so a nested pool would start threads
    half = {"weight": 0.5, "measure": {"type": "round", "monte_carlo": True}}
    argv = ("--format", "json", "--seed", "3", "--samples", "3000",
            "check", "s2-octahedron", "--measure",
            json.dumps({"type": "mixture", "components": [half, half]}))
    monkeypatch.setenv("GBM_THREADS", "1")
    _, sequential = run(capsys, *argv)
    assert busy["items"] == 0
    monkeypatch.setenv("GBM_THREADS", "2")
    _, threaded = run(capsys, *argv)
    assert threaded == sequential
    assert busy["items"] > 0
    assert 1 <= busy["peak"] <= 2

import contextlib
import copy
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gbmeasure
from gbmeasure import cli, errors, measure, simplex
from gbmeasure.cli import main
from gbmeasure.documents import BUILTIN_DOCUMENTS, builtin_document
from gbmeasure.simplex import k_value
from gbmeasure.triangulation import load


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_check_octahedron_round(capsys):
    code, out = run(capsys, "check", "s2-octahedron", "--measure", "round")
    assert code == 0
    assert "chi: 2" in out.splitlines()
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


def test_atomic_on_edge_loads_its_document_once(capsys, monkeypatch):
    loads = []

    def counting_load(document):
        loads.append(document)
        return load(document)

    monkeypatch.setattr(cli, "load", counting_load)
    code, _ = run(capsys, "check", "rp2-icosahedral", "--measure",
                  "atomic-on-edge")
    assert code == 2
    assert len(loads) == 1


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


@pytest.mark.parametrize("argv, options", [
    (["check", "s2-octahedron", "--orbit-depth", "3"],
     ("--orbit-depth", "--dichotomy")),
    (["sgb", "--random-simplex", "--vertices", "[[1, 0], [0, 1]]"],
     ("--random-simplex", "--vertices")),
    (["sgb", "--vertices", "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]", "--dim",
      "5"], ("--vertices", "--dim")),
    # an option given as 0 is given
    (["check", "s2-octahedron", "--orbit-depth", "0"],
     ("--orbit-depth", "--dichotomy")),
    (["sgb", "--vertices", "[[1, 0], [0, 1]]", "--dim", "0"],
     ("--vertices", "--dim"))],
    ids=["orbit-depth-without-dichotomy", "random-simplex-and-vertices",
         "vertices-and-dim", "orbit-depth-0-without-dichotomy",
         "vertices-and-dim-0"])
def test_ignored_option_is_a_named_conflict(capsys, argv, options):
    code, out = run(capsys, "--format", "json", "--samples", "1000", *argv)
    diagnostic = json.loads(out)
    assert code == 2 and diagnostic["error"] == "SchemaError"
    assert all(option in diagnostic["detail"] for option in options)


_PULLBACK = ["pullback", '{"degree": 2, "atoms": [[0.1, 1]]}']
_EXAMPLE = ["example", "s1-polygon", "-o", "@TMP/polygon.json"]


@pytest.mark.parametrize("option, value, argv", [
    ("--tolerance", "0.5", ["angles", "s2-octahedron", "--measure", "round"])
] + [(option, value, argv) for argv in (_PULLBACK, _EXAMPLE)
     for option, value in (("--seed", "3"), ("--samples", "1000"),
                           ("--tolerance", "0.5"))],
    ids=["angles-tolerance", "pullback-seed", "pullback-samples",
         "pullback-tolerance", "example-seed", "example-samples",
         "example-tolerance"])
def test_global_option_a_command_does_not_read_is_refused(
        tmp_path, capsys, option, value, argv):
    argv = [a.replace("@TMP", str(tmp_path)) for a in argv]
    code, out = run(capsys, "--format", "json", option, value, *argv)
    assert code == 2
    assert json.loads(out) == {
        "error": "SchemaError",
        "detail": "%s: command %r takes no %s" % (option, argv[0], option)}
    assert list(tmp_path.iterdir()) == []    # example wrote nothing


def _readme_commands():
    """(argv, exit code) of each line of the README's first command block:
    2 where its comment says exit 2, else 0."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```")[1]
    lines = [line.partition("#") for line in block.strip().splitlines()]
    return [(shlex.split(argv), 2 if "exit 2" in comment else 0)
            for argv, _, comment in lines]


def test_readme_command_block_runs(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 9
    for argv, code in commands:
        assert argv[0] == "gbm"
        assert (main(argv[1:]), argv) == (code, argv)
        assert capsys.readouterr().err == ""


def test_sgb_random_simplex(capsys):
    code, out = run(capsys, "--seed", "7", "--samples", "50000", "sgb",
                    "--random-simplex", "--dim", "2")
    assert code == 0
    assert "residual" in out


# a sampled sgb reads two bins of the full cut's histogram and builds no
# table; an exact one evaluates the full cut and then the 7 others of a
# 2-simplex.  Either way k is summed once, by cli.k_value, and the residual
# reuses it
@pytest.mark.parametrize("argv, regions", [
    (["--dim", "4"], 1), (["--dim", "2", "--measure", "round"], 8)],
    ids=["sampled", "exact"])
def test_sgb_evaluates_each_region_once(capsys, monkeypatch, argv, regions):
    evaluated, sums = [], []
    build = cli.measure_from_spec
    for module in (cli, simplex):
        monkeypatch.setattr(module, "k_value", lambda *args, **kwargs: (
            sums.append(args) or k_value(*args, **kwargs)))

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
                  *argv)
    assert code == 0
    assert len(evaluated) == regions
    assert len(sums) == 1


_RESTRICTED_MC = json.dumps({"type": "restricted", "base": {
    "type": "round", "monte_carlo": True}, "region": [[0, 0.6, 0.8]]})


@pytest.mark.parametrize("argv, bins", [
    (["sgb", "--random-simplex", "--dim", str(d)], 3) for d in range(1, 6)]
    + [(["check", "s2-octahedron", "--measure", "round-mc"], 8),
       (["check", "s2-octahedron", "--measure", _RESTRICTED_MC], 3),
       (["invariance", "--measure", "round-mc", "--group", "icosahedral",
         "--regions", "3"], 3)],
    ids=["sgb-dim-%d" % d for d in range(1, 6)]
    + ["octahedron", "restricted", "invariance"])
def test_only_angle_table_full_cuts_count_every_sign_code(capsys,
                                                          monkeypatch, argv,
                                                          bins):
    # the octahedron's angle table reads the shares of every code of its
    # tops' 3 planes; sgb in dimension n >= 1 reads the first and last bins,
    # a restriction and an invariance check masses, so they count three
    built = []
    init = measure._PlaneGroup.__init__

    def recording(group, *args):
        init(group, *args)
        built.append((group.count, group.bins))

    monkeypatch.setattr(measure._PlaneGroup, "__init__", recording)
    code, _ = run(capsys, "--samples", "2000", *argv)
    assert code == 0
    assert built and {b for _, b in built} == {bins}
    if bins == 8:
        assert built == [(8, 8)]


def test_sgb_negative_dim_is_rejected(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sgb", "--random-simplex", "--dim", "-1"])
    assert exit_info.value.code == 2
    assert "argument --dim: must be a non-negative integer" in (
        capsys.readouterr().err)


def test_sgb_refuses_a_simplex_wider_than_its_angle_table(capsys,
                                                         monkeypatch):
    pairs = measure._BLOCK * measure._GROUP_PLANES
    assert 3 ** (simplex.MAX_DIM + 1) <= pairs < 3 ** (simplex.MAX_DIM + 2)
    # refused before a simplex is drawn or a region evaluated
    monkeypatch.setattr(cli, "random_simplex", None)
    monkeypatch.setattr(simplex, "face_region", None)
    for argv in (["--random-simplex", "--dim", str(simplex.MAX_DIM + 1)],
                 ["--random-simplex", "--dim", "17"],
                 ["--vertices", json.dumps(np.eye(15).tolist())]):
        code = main(["--format", "json", "sgb"] + argv)
        out, err = capsys.readouterr()
        assert code == 2 and err == ""
        assert json.loads(out)["error"] == "DimensionTooLarge"
        assert "up to %d" % simplex.MAX_DIM in json.loads(out)["detail"]


def _reports(capsys, argvs):
    """(exit code, stdout, stderr) of main on each argv in turn."""
    out = []
    for argv in argvs:
        try:
            code = main(["--format", "json", "--samples", "5000"] + argv)
        except SystemExit as exit_info:
            code = exit_info.code
        out.append((code,) + tuple(capsys.readouterr()))
    return out


@pytest.mark.parametrize("first, second", [
    (["sgb", "--random-simplex", "--dim", "-1"],
     ["sgb", "--random-simplex", "--dim", "3"]),
    (["check", "s2-octahedron", "--measure", "round-mc", "--dichotomy"],
     ["check", "s2-octahedron", "--measure", "round-mc"]),
    (["sgb", "--vertices", "[[1, 0.2, 0.1], [0.1, 1, 0.3], [0.2, 0.1, 1]]"],
     ["sgb", "--random-simplex"])],
    ids=["rejected-then-valid", "flag-then-none", "vertices-then-random"])
def test_main_reuses_one_parser_with_fresh_parser_reports(capsys,
                                                          monkeypatch,
                                                          first, second):
    parser = cli._PARSER
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", None)
        reused = _reports(capsys, [first, second])
    assert cli._PARSER is parser
    fresh = []
    for argv in (first, second):
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        fresh += _reports(capsys, [argv])
    assert reused == fresh
    assert [code for code, _, _ in reused] == (
        [2, 0] if "-1" in first else [0, 0])


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
    try:
        code, out = run(capsys, "invariance", "--measure", "round", *args)
    except SystemExit as exit_info:       # argparse rejects the value
        code, out = exit_info.code, capsys.readouterr().err
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
    assert "error: GBError" in out.splitlines()


def test_missing_document_is_structured_error(capsys):
    code, out = run(capsys, "check", "/no/such/file.json")
    assert code == 2
    assert "error: FileNotFoundError" in out.splitlines()


def _walk(payload):
    """(key, value) of every field of a JSON payload, nested and listed
    objects included, but not the fields of an estimate."""
    for key, value in payload.items():
        yield key, value
        items = value if isinstance(value, list) else [value]
        for item in items:
            if (isinstance(item, dict)
                    and set(item) != {"value", "std_error", "samples"}):
                yield from _walk(item)


@pytest.mark.parametrize("argv", [
    ["check", "s2-octahedron", "--measure", "round"],
    ["check", "s2-octahedron", "--measure", "round", "--dichotomy"],
    ["check", "s1-polygon"],
    ["check", "s1-polygon", "--dichotomy"],
    ["--samples", "2000", "check", "s2-octahedron", "--measure",
     "atomic-on-edge"],
    ["sgb", "--random-simplex", "--dim", "2", "--measure", "round"],
    ["--samples", "2000", "angles", "s1-polygon", "--m", "3",
     "--measure", "round-mc"],
    ["invariance", "--measure", "round", "--group", "klein4",
     "--regions", "3"],
    ["invariance", "--measure", '{"type": "atomic", "atoms": [{"point": '
     '[1, 0.2, 0.3], "weight": 2}]}', "--group", "cyclic:5",
     "--regions", "3"],
    ["pullback", json.dumps({"degree": 2, "atoms": [[0.0, 1.0]],
                             "coverings": [[[0.1, 2.0], [2.0, 2.0],
                                            [4.0, 2.5]]] * 2})],
    ["example", "s1-polygon", "-o", "@TMP/polygon.json"],
], ids=["check-even", "check-even-dichotomy", "check-odd",
        "check-odd-dichotomy", "error", "sgb", "angles", "invariance",
        "invariance-fails", "pullback", "example"])
def test_text_output_is_the_json_payload(tmp_path, capsys, argv):
    argv = [a.replace("@TMP", str(tmp_path)) for a in argv]
    code, out = run(capsys, "--format", "json", *argv)
    payload = json.loads(out)
    text_code, text = run(capsys, *argv)
    assert text_code == code
    fields = list(_walk(payload))
    assert all(key in text for key, _ in fields)
    assert sorted(re.findall(r"\b(PASS|FAIL)\b", text)) == sorted(
        "PASS" if value else "FAIL" for _, value in fields
        if isinstance(value, bool))
    assert not re.search(r"\b([Tt]rue|[Ff]alse)\b", text)
    if "passed" in payload:
        assert text.splitlines()[-1] == "passed: %s" % (
            "PASS" if payload["passed"] else "FAIL")


def _module_env():
    """The environment for python -m gbmeasure on this tree's source."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def test_sgb_on_s0_is_its_closed_form_in_and_out_of_process(capsys):
    # two weighted points: the simplex holds one, so k is 1 and the
    # residual 2 k - (1 + (-1)^0) mu(s) is 0, both exact.  Under the
    # default round-mc both bins of S^0 weigh 1 in k, so k stays the exact
    # 1, and only the residual reads the samples of mu(s)
    for argv, residual in (
            (["--format", "json", "sgb", "--random-simplex", "--dim", "0",
              "--measure", "round"], (0.0, 0.0, 0)),
            (["--format", "json", "--samples", "5000", "sgb",
              "--random-simplex", "--dim", "0"], None)):
        code, out = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == {"value": 1.0, "std_error": 0.0,
                                "samples": 0}
        if residual is None:
            assert payload["residual"]["samples"] == 5000
            assert payload["residual"]["std_error"] > 0.0
        else:
            assert tuple(payload["residual"][key] for key in (
                "value", "std_error", "samples")) == residual
        assert payload["passed"]
        proc = subprocess.run([sys.executable, "-m", "gbmeasure"] + argv,
                              capture_output=True, text=True,
                              env=_module_env(), timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


@pytest.mark.parametrize("dim", [12, 13])
def test_sgb_refuses_a_verdict_on_no_readings(capsys, dim):
    # at seed 0 no one of 10000 readings lies in the simplex or its
    # antipode, where k and the residual read: the verdict is refused
    code = main(["--format", "json", "--seed", "0", "--samples", "10000",
                 "sgb", "--random-simplex", "--dim", str(dim)])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out) == {
        "error": "InsufficientSamples",
        "detail": "no reading of 10000 samples lies in the %d-simplex or "
                  "its antipode" % dim}
    assert gbmeasure.InsufficientSamples is errors.InsufficientSamples
    assert issubclass(errors.InsufficientSamples, errors.GBError)


@pytest.mark.parametrize("argv, code", [
    (["angles", "s2-octahedron", "--measure", "round-mc"], 0),
    (["check", "s2-octahedron", "--measure", "bogus"], 2)],
    ids=["report", "error"])
def test_closed_stdout_ends_quietly_with_the_run_exit_code(argv, code):
    proc = subprocess.Popen(
        [sys.executable, "-m", "gbmeasure", "--format", "json", "--samples",
         "4000"] + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_module_env())
    proc.stdout.close()     # the reader is gone before anything is written
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert proc.wait(timeout=60) == code


_ZERO = [[0.0] * 3] * 3
_SINGULAR = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]


def _pairing(face, a, b, matrix):
    return {"face": face, "simplex_a": a, "simplex_b": b, "matrix": matrix}


@pytest.mark.parametrize("path, value, named, error", [
    (("developed",), 5, ["developed"], errors.SchemaError),
    (("faces", "1"), 7, ["faces['1']"], errors.SchemaError),
    (("holonomy_generators",), [[[1.0, 0.0], [0.0, 1.0]]],
     ["holonomy generator 0"], errors.SchemaError),
    (("pairings",), [_pairing(0, 0, 1, [[1.0, 0.0], [0.0, 1.0]])],
     ["pairing 0"], errors.SchemaError),
    (("holonomy_generators",), [np.eye(3).tolist(), _ZERO],
     ["holonomy generator 1 is singular: zero matrix"], errors.SchemaError),
    (("holonomy_generators",), [_SINGULAR], ["holonomy generator 0 is "
     "singular"], errors.SchemaError),
    (("pairings",), [_pairing(0, 0, 1, _ZERO)],
     ["pairing 0 matrix is singular"], errors.SchemaError),
    # one singular matrix shared by two pairings is named for each
    (("pairings",), [_pairing(0, 0, 1, _SINGULAR),
                     _pairing(1, 0, 2, np.eye(3).tolist()),
                     _pairing(2, 1, 3, _SINGULAR)],
     ["pairing 0 matrix is singular", "pairing 2 matrix is singular"],
     errors.SchemaError),
    (("developed",), [_SINGULAR, np.eye(3).tolist()] * 2
     + [np.eye(3).tolist()] * 3 + [[[1, 0, 0], [0, 1, 0], [0, 0, 0]]],
     ["top simplex 0: vertex matrix determinant 0",
      "top simplex 2: vertex matrix determinant 0",
      "top simplex 7: vertex 2 has norm 0"], errors.DegenerateSimplex),
    (("faces",), [[[0]]], ["faces must be an object keyed by dimension"],
     errors.SchemaError),
    (("dim",), 0, ["dim must be >= 1, got 0"], errors.SchemaError),
    (("vertices",), 0, ["vertices must be >= 1"], errors.SchemaError),
    (("faces", "1", 0), [0, 9],
     ["face 0 of dim 1 references a vertex out of range"], errors.SchemaError),
    (("faces", "0"), [[v] for v in range(5)],
     ["0-faces must list every vertex exactly once"], errors.SchemaError),
    (("developed",), [np.eye(3).tolist()] * 7,
     ["developed has 7 entries for 8 top simplices"], errors.SchemaError),
    (("pairings",), [{"face": 0, "simplex_a": 0, "simplex_b": 1}],
     ["pairing 0 is malformed: 'matrix'"], errors.SchemaError),
    # an empty path replaces the whole document
    ((), [], ["document must be a JSON object"], errors.SchemaError),
], ids=["developed-int", "face-level-int", "holonomy-2x2", "pairing-2x2",
        "holonomy-zero", "holonomy-singular", "pairing-zero",
        "pairings-share-singular", "developed-degenerate-tops", "faces-list",
        "dim-0", "vertices-0", "vertex-out-of-range", "missing-0-face",
        "developed-count", "pairing-without-matrix", "not-an-object"])
def test_malformed_document_is_schema_error(tmp_path, capsys, path, value,
                                            named, error):
    document = builtin_document("s2-octahedron")
    target = document
    for key in path[:-1]:
        target = target[key]
    if path:
        target[path[-1]] = value
    else:
        document = value
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(document))
    code, out = run(capsys, "--format", "json", "check", str(doc_path))
    assert code == 2
    diagnostic = json.loads(out)
    assert issubclass(getattr(errors, diagnostic["error"]), error)
    assert all(name in diagnostic["detail"] for name in named)


@pytest.mark.parametrize("field, value, detail", [
    ("matrix", [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
     "vertex slot 1 of face 0 maps 1.41421 away from its mate"),
    ("face", 99, "face index 99 out of range"),
    ("simplex_b", 7, "face 0 is not shared by simplices 0 and 7"),
    # face 0 lies in tops 0 and 1, so a pairing of top 0 with itself fails
    ("simplex_b", 0, "face 0 is not shared by simplices 0 and 0"),
], ids=["matrix", "face", "simplex", "one-top-twice"])
def test_mismatched_pairing_is_a_developing_mismatch(tmp_path, capsys, field,
                                                     value, detail):
    doc_path = tmp_path / "octahedron.json"
    assert run(capsys, "example", "s2-octahedron", "-o",
               str(doc_path))[0] == 0
    document = json.loads(doc_path.read_text())
    document["pairings"][0][field] = value
    doc_path.write_text(json.dumps(document))
    code = main(["--format", "json", "check", str(doc_path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in out + err
    assert json.loads(out) == {"error": "DevelopingMismatch",
                               "detail": "pairing 0: " + detail}


@pytest.mark.parametrize("turn, code", [(1, 0), (-1, 2)],
                         ids=["forward", "backward"])
def test_one_vertex_circle_pairs_its_chart_with_itself(tmp_path, capsys,
                                                       turn, code):
    # one arc of 2 pi / 3 whose two ends are the one vertex: both
    # incidences of that codim-1 face lie in top 0, the first (vertex slot
    # 0 of the arc, at e1) is simplex_a's and the second simplex_b's, so
    # the pairing must turn e1 forward onto the arc's other end
    c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)
    rotation = [[c, -s], [s, c]]
    document = {"dim": 1, "vertices": 1, "faces": {"0": [[0]], "1": [[0, 0]]},
                "developed": [[[1.0, 0.0], [c, s]]],
                "holonomy_generators": [rotation],
                "pairings": [_pairing(0, 0, 0, [[c, -turn * s],
                                                [turn * s, c]])]}
    doc_path = tmp_path / "circle.json"
    doc_path.write_text(json.dumps(document))
    got, out = run(capsys, "--format", "json", "check", str(doc_path))
    assert got == code
    if code:
        assert json.loads(out) == {
            "error": "DevelopingMismatch",
            "detail": "pairing 0: vertex slot 0 of face 0 maps 1 away from "
                      "its mate"}
    else:
        assert json.loads(out)["passed"]


@pytest.mark.parametrize("pairings", [True, False], ids=["kept", "deleted"])
def test_repeated_face_tuples_are_dealt_round_robin(tmp_path, capsys,
                                                    pairings):
    # every edge of t2-grid --k 2 as a sorted tuple: each of the 6 vertex
    # pairs then bounds two of the 12 edges.  With its pairings, each edge
    # goes to the two tops its pairing names, and the report is the
    # built-in's; without them, load deals the two edges of a pair to its
    # incidences in turn
    document = builtin_document("t2-grid", k=2)
    document["faces"]["1"] = [sorted(e) for e in document["faces"]["1"]]
    assert len({tuple(e) for e in document["faces"]["1"]}) == 6
    if not pairings:
        del document["pairings"]
    doc_path = tmp_path / "grid.json"
    doc_path.write_text(json.dumps(document))
    code, out = run(capsys, "--format", "json", "check", str(doc_path))
    assert code == 0
    report = json.loads(out)
    assert report["chi"] == 0 and report["passed"]
    if pairings:
        _, builtin = run(capsys, "--format", "json", "check", "t2-grid",
                         "--k", "2")
        assert dict(report, document="t2-grid") == json.loads(builtin)


@pytest.mark.parametrize("extra", [[], ["--dichotomy"]])
def test_restriction_that_excludes_an_edge_atom_passes(capsys, extra):
    # [0, 0, 1] lies on octahedron edge planes, but the region's first
    # plane puts it below -ATOM_TOL and its second puts it above, so the
    # restriction to A and -A gives it mass 0: one atom at [1, 0.3, 0.2]
    atoms = [{"point": [0, 0, 1], "weight": 1},
             {"point": [1, 0.3, 0.2], "weight": 1}]
    spec = {"type": "restricted", "base": {"type": "atomic", "atoms": atoms},
            "region": [[1, 0, -0.2], [0, 1, 0.2]]}
    code, out = run(capsys, "--format", "json", "check", "s2-octahedron",
                    "--measure", json.dumps(spec), *extra)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and report["mu"]["value"] == 2.0
    assert report["verdicts"]["transversality"]["passed"]


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
    ({"type": "atomic", "atoms": [{"point": [0.3, 0.5, 0.8], "weight": -1}]},
     "weight"),
    ({"type": "mixture", "components": [
        {"weight": -0.5, "measure": {"type": "round"}},
        {"weight": 1.5, "measure": {"type": "round"}}]}, "weight"),
    ({"type": "mixture", "components": [
        {"weight": 0.5, "measure": {"type": "round"}}]}, "components"),
], ids=["atoms-empty", "point-length", "generators-ragged",
        "seed-point-ragged", "basis-ragged", "atom-weight-negative",
        "mixture-weight-negative", "mixture-weights-sum"])
def test_malformed_measure_array_names_the_field(capsys, spec, field):
    code, out = run(capsys, "--format", "json", "check", "s2-octahedron",
                    "--measure", json.dumps(spec))
    assert code == 2
    diagnostic = json.loads(out)
    assert diagnostic["error"] == "SchemaError"
    assert repr(field) in diagnostic["detail"]


_MATRIX_FILES = {"@ONE_TWO": [1, 2], "@STRINGS": [[["a", "b", "c"]] * 3],
                 "@ZERO": [np.eye(3).tolist(), _ZERO]}


@pytest.mark.parametrize("argv, named", [
    (["pullback", '{"degree": [2], "atoms": [[0.1, 1]]}'], "'degree'"),
    (["pullback", "[1]"], "pullback input"),
    (["pullback", '{"degree": 2, "atoms": [[0.1, 1]], "coverings": [[0.5]]}'],
     "'coverings'"),
    (["pullback", '{"degree": 2.7, "atoms": [[0.1, 1]]}'], "'degree'"),
    (["pullback", '{"degree": true, "atoms": [[0.1, 1]]}'], "'degree'"),
    (["pullback", '{"degree": 2, "atoms": [[0.1, "1"]]}'], "'atoms'"),
    (["pullback", '{"degree": 2, "atoms": [[NaN, 1]]}'], "'atoms'"),
    (["invariance", "--measure", "round", "--group", "@ONE_TWO"], "--group"),
    (["invariance", "--measure", "round", "--group", "@STRINGS"], "--group"),
    (["invariance", "--measure", "round", "--group", "cyclic:x"], "--group"),
    (["--samples", "0", "sgb", "--random-simplex"], "--samples"),
    (["--samples", "-5", "sgb", "--random-simplex"], "--samples"),
    (["sgb", "--vertices", "[1, 2]"], "--vertices"),
    (["sgb", "--vertices", "5"], "--vertices"),
    (["sgb", "--vertices", '[[1, 0], [0, "a"]]'], "--vertices"),
    (["pullback", '{"degree": 2, "atoms": [[0.1, -1]]}'], "'atoms'"),
    (["pullback", '{"degree": 0, "atoms": [[0.1, 1]]}'], "'degree'"),
    (["pullback", '{"degree": 2, "atoms": []}'], "'atoms'"),
    (["check", "s2-octahedron", "--measure", '{"type": "atomic", "atoms": '
      '[{"point": [0, 0, 0], "weight": 1}]}'], "'point'"),
    (["check", "s2-octahedron", "--measure", '{"type": "atomic", "atoms": '
      '[{"point": [0, 0, 1], "weight": 1}, {"point": [1, 0, 0], '
      '"weight": 0.5}]}'], "'atoms'"),
    (["check", "s2-octahedron", "--measure", '{"type": "orbit", '
      '"seed_point": [0, 0, 0], "generators": []}'], "'seed_point'"),
    (["check", "s2-octahedron", "--measure", '{"type": "orbit", '
      '"seed_point": [0, 0, 1], "generators": [], "max_orbit": 0}'],
     "'max_orbit'"),
    (["check", "s2-octahedron", "--measure",
      '{"type": "subsphere", "basis": [[1, 1, 0]]}'], "'basis'"),
    (["check", "s2-octahedron", "--measure", '{"type": "restricted", '
      '"base": {"type": "round"}, "subspace": [[1, 1, 0]]}'], "'subspace'"),
    (["check", "s2-octahedron", "--measure", '{"type": "restricted", '
      '"base": {"type": "round"}, "region": [[0, 0, 0]]}'],
     "hyperplane normal has norm 0 (< 1e-12)"),
    (["check", "t2-grid", "--k", "1"], "--k"),
    (["check", "klein-grid", "--k", "2"], "--k"),
    (["check", "s1-polygon", "--m", "2"], "--m"),
    (["check", "s1-polygon", "--k", "7"], "--k"),
    (["check", "t2-grid", "--m", "9"], "--m"),
    (["invariance", "--measure", "round", "--group", "@ZERO"], "--group"),
    (["check", "s2-octahedron", "--measure", json.dumps(
        {"type": "orbit", "seed_point": [0, 0, 1], "generators": [_ZERO]})],
     "'generators'"),
    (["check", "s2-octahedron", "--measure", json.dumps(
        {"type": "orbit", "seed_point": [0, 0, 1],
         "generators": [_SINGULAR]})], "'generators'"),
    (["--tolerance", "nan", "check", "s2-octahedron"], "--tolerance"),
    (["--tolerance", "-1", "check", "s2-octahedron"], "--tolerance"),
    (["--tolerance", "inf", "check", "s2-octahedron"], "--tolerance"),
    (["check", "t2-grid", "--dichotomy", "--orbit-depth", "-3"],
     "--orbit-depth"),
    (["invariance", "--measure", "round", "--group", "klein4", "--dim",
      "-1"], "--dim"),
    (["invariance", "--measure", "round", "--group", "klein4", "--regions",
      "0"], "--regions"),
    (["invariance", "--measure", "round", "--group", "klein4", "--regions",
      "-3"], "--regions"),
], ids=["degree-list", "not-an-object", "covering-arc", "degree-fraction",
        "degree-bool", "weight-string", "angle-nan", "group-numbers",
        "group-strings", "cyclic-order", "samples-0", "samples-negative",
        "vertices-flat", "vertices-number", "vertices-string",
        "weight-negative", "degree-zero", "atoms-empty", "point-zero",
        "atom-weights-sum", "seed-point-zero", "max-orbit-zero",
        "basis-not-orthonormal", "subspace-not-orthonormal",
        "region-normal-zero", "t2-grid-k",
        "klein-grid-k", "s1-polygon-m", "s1-polygon-takes-no-k",
        "t2-grid-takes-no-m", "group-zero", "orbit-generator-zero",
        "orbit-generator-singular", "tolerance-nan", "tolerance-negative",
        "tolerance-inf", "orbit-depth-negative", "invariance-dim-negative",
        "regions-0", "regions-negative"])
def test_malformed_cli_input_is_a_named_error(tmp_path, capsys, argv, named):
    for key, matrices in _MATRIX_FILES.items():
        (tmp_path / key[1:]).write_text(json.dumps(matrices))
    argv = ["@%s/%s" % (tmp_path, a[1:]) if a in _MATRIX_FILES else a
            for a in argv]
    try:
        code = main(["--format", "json"] + argv)
    except SystemExit as exit_info:       # argparse rejects the value
        code = exit_info.code
        assert "argument %s" % named in capsys.readouterr().err
    else:
        diagnostic = json.loads(capsys.readouterr().out)
        assert issubclass(getattr(errors, diagnostic["error"], type(None)),
                          errors.GBError)
        assert named in diagnostic["detail"]
    assert code == 2


@pytest.mark.parametrize("spec, extra, detail", [
    # neither the atom nor its antipode lies in A (z > 10 x > 0)
    ({"type": "restricted", "base": {"type": "atomic", "atoms": [
        {"point": [1, 2, 3], "weight": 2}]},
      "region": [[1, 0, 0], [-1, 0, 0.1]]}, [],
     "restriction region has no mass"),
    ({"type": "restricted", "base": {"type": "round", "monte_carlo": True},
      "region": [[0, 0.6, 0.8]]}, ["--dichotomy"],
     "union_mass of a restricted non-atomic measure"),
], ids=["region-without-mass", "sampled-union"])
def test_unsupported_restriction_is_a_named_error(capsys, spec, extra,
                                                  detail):
    code, out = run(capsys, "--format", "json", "--samples", "2000", "check",
                    "s2-octahedron", "--measure", json.dumps(spec), *extra)
    assert code == 2
    assert json.loads(out) == {"error": "UnsupportedMeasure",
                               "detail": detail}


def test_odd_dimensional_dichotomy_does_not_apply(capsys):
    # chi = 0 on every odd-dimensional manifold, so a chart union of
    # positive mass contradicts nothing
    code, out = run(capsys, "--format", "json", "--samples", "2000",
                    "check", "s1-polygon", "--dichotomy")
    assert code == 0
    dichotomy = json.loads(out)["dichotomy"]
    assert dichotomy["consistent"]
    assert "odd dimension" in dichotomy["detail"]


def _builtin_measure_specs():
    """The named measures on s2-octahedron, and one spec of each composite
    type built from them."""
    tri = load(builtin_document("s2-octahedron"))
    named = [cli._named_measure(name, tri, 2) for name in
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
_INTEGER_FIELDS = {"max_orbit", "dim", "vertices", "face", "simplex_a",
                   "simplex_b"}


def _scalar_mutations(value, path):
    """Replacements that make a scalar malformed: wrapped in a list, as a
    string, NaN, infinite, a boolean (or a number for a boolean), and a
    fraction where an integer is required (a field of _INTEGER_FIELDS or
    a vertex of a face)."""
    yield from ("wrap", "nan", "inf")
    if not isinstance(value, str):
        yield "string"
    yield "number" if isinstance(value, bool) else "bool"
    if (isinstance(value, int) and not isinstance(value, bool)
            and (path[0] == "faces" or set(path) & _INTEGER_FIELDS)):
        yield "fraction"


def _malforming_mutations(node, path=(), structural=True):
    """(path, mutation) pairs, each of which makes a valid spec malformed:
    drop a required field, empty a list, make a list ragged, make a
    vector one too short or too long, or replace a scalar (see
    _scalar_mutations).  Without structural, only ragged lists and
    scalar replacements."""
    if isinstance(node, dict):
        for key, value in node.items():
            if structural and key not in _OPTIONAL_FIELDS:
                yield path + (key,), "drop"
            yield from _malforming_mutations(value, path + (key,),
                                             structural)
    elif isinstance(node, list) and node:
        if structural and path[-1] not in _MAY_BE_EMPTY:
            yield path, "empty"
        if all(isinstance(x, (int, float)) for x in node):
            yield path, "ragged"
            if structural:
                yield from ((path, m) for m in ("short", "long"))
        elif all(isinstance(x, list) for x in node):
            yield path, "ragged"
        for i, value in enumerate(node):
            yield from _malforming_mutations(value, path + (i,), structural)
    elif not isinstance(node, list):
        yield from ((path, m) for m in _scalar_mutations(node, path))


_SCALAR_REPLACEMENTS = {
    "wrap": lambda v: [v], "string": str, "nan": lambda v: float("nan"),
    "inf": lambda v: float("inf"), "bool": lambda v: True,
    "number": lambda v: 1, "fraction": lambda v: v + 0.5}


def _mutated(spec, path, mutation):
    spec = copy.deepcopy(spec)
    parent = spec
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    if mutation in _SCALAR_REPLACEMENTS:
        parent[path[-1]] = _SCALAR_REPLACEMENTS[mutation](node)
    elif mutation == "drop":
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


def _malformed_specs():
    """Every malformed spec, in two groups drawn alike: structural
    mutations and scalar replacements, so that adding scalar cases does
    not draw the structural ones less often."""
    groups = ([], [])
    for spec in _builtin_measure_specs():
        for path, mutation in _malforming_mutations(spec):
            groups[mutation in _SCALAR_REPLACEMENTS].append(
                (spec, path, mutation))
    return list(groups)


_MALFORMED_SPECS = _malformed_specs()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_MALFORMED_SPECS).flatmap(st.sampled_from))
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


_BUILTIN_DOCUMENTS = {name: builtin_document(name)
                      for name in sorted(BUILTIN_DOCUMENTS)}


def _malformed_documents():
    """Ragged lists and scalar replacements in every built-in document,
    grouped by (document, top-level key) so that each group is drawn
    alike however many entries it has."""
    groups = {}
    for name, document in _BUILTIN_DOCUMENTS.items():
        for path, mutation in _malforming_mutations(document,
                                                    structural=False):
            groups.setdefault((name, path[0]), []).append(
                (name, path, mutation))
    return list(groups.values())


_MALFORMED_DOCUMENTS = _malformed_documents()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_MALFORMED_DOCUMENTS).flatmap(st.sampled_from))
def test_malformed_document_is_a_named_error(case):
    name, path, mutation = case
    document = _mutated(_BUILTIN_DOCUMENTS[name], path, mutation)
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        doc_path = os.path.join(tmp, "doc.json")
        with open(doc_path, "w") as fh:
            json.dump(document, fh)
        with contextlib.redirect_stdout(out):
            code = main(["--format", "json", "--samples", "2000", "check",
                         doc_path])
    assert code == 2, (name, path, mutation)
    error = getattr(errors, json.loads(out.getvalue())["error"], None)
    assert error is not None and issubclass(error, errors.GBError)


def test_builtin_documents_pass_unmutated(tmp_path, capsys):
    # the documents the fuzzer mutates are valid as they are
    for name, document in _BUILTIN_DOCUMENTS.items():
        doc_path = tmp_path / (name + ".json")
        doc_path.write_text(json.dumps(document))
        assert run(capsys, "--samples", "2000", "check", str(doc_path))[0] \
            == 0, name


@pytest.mark.parametrize("argv, name, path, named", [
    (["--dichotomy"], "t2-grid", ("holonomy_generators", 0, 0, 0),
     "holonomy generator 0"),
    (["--dichotomy", "--orbit-depth", "1"], "t2-grid",
     ("holonomy_generators", 0, 0, 0), "holonomy generator 0"),
    ([], "s2-octahedron", ("pairings", 0, "matrix", 1, 2),
     "pairing 0 matrix"),
    ([], "s2-octahedron", ("developed", 3, 0, 1), "developed[3]"),
    ([], "s2-octahedron", ("faces", "1", 0, 0), "face 0 of dim 1"),
    ([], "s2-octahedron", ("measure", "point"), "'point'"),
], ids=["holonomy-dichotomy", "holonomy-orbit", "pairing", "developed",
        "face", "atomic-point"])
@pytest.mark.parametrize("number", [float("nan"), float("inf")])
def test_non_finite_number_is_a_named_error(tmp_path, capsys, argv, name,
                                            path, named, number):
    document = copy.deepcopy(_BUILTIN_DOCUMENTS[name])
    if path[0] == "measure":
        document["measure"] = {"type": "atomic", "atoms": [
            {"point": [number, 0.2, 1.0], "weight": 1.0}]}
    else:
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = number
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(document))
    code, out = run(capsys, "--format", "json", "--samples", "2000",
                    "check", str(doc_path), *argv)
    assert code == 2
    diagnostic = json.loads(out)
    assert diagnostic["error"] == "SchemaError"
    assert named in diagnostic["detail"]

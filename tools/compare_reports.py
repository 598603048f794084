"""Run one battery of gbm invocations on two source trees and compare them.

    python tools/compare_reports.py OLD_SRC NEW_SRC

Each path is a checkout (holding src/gbmeasure) or the directory holding
the gbmeasure package itself.  The battery runs every built-in document
under twelve measures, its own, four named and seven specs, among them
one region restriction of round-mc and one of the atomic measure (check,
check --dichotomy --orbit-depth 1, angles), sgb in dimensions 1-4 under
its default round-mc and 1-2 under the exact round, sgb on one --vertices
simplex under round-mc, round and the 25/75 mixture of round and atoms,
and invariance of ten measures under three groups, at seeds 1 and 2 and
3000 and 40000 samples; then, at both seeds
and 300000 samples, so that Monte Carlo draws span several blocks, the
octahedron check with round-mc and --dichotomy, sgb in dimensions 4-7,
whose simplices of 5-8 planes count every sign code up to 6 planes and
three bins above, and five more chart unions with
--dichotomy: t2-grid --k 6 and klein-grid --k 5 at --orbit-depth 2 under
their own measure, whose 312 and 314 bitwise distinct normals merge into
3 and 4 planes (every chart there has closed-form mass 0, so the union
leaves it out and draws nothing), t2-grid --k 6 --orbit-depth 2 under
round-mc, whose 936 charts make a sampled union of 2096 bitwise distinct
normals merged into 97 planes (it exits 2, naming the union's mass: the
charts of a torus carry round mass), s1-polygon --m 40 under round-mc
(55 into 20) and rp2-icosahedral --orbit-depth 1 under round-mc (15
planes); then, still at 300000 samples, the angle tables of s1-polygon
--m 3 and --m 4 under round-mc, whose 3 and 4 sampled tops read the
half-size chunks of a call of 3-4 regions over several blocks, and
check t2-grid --k 2 under round-mc, whose 8 tops read the full-size
chunks of 5 or more regions; then, at both seeds and 40000 samples,
check t2-grid --k 16 under round-mc, whose 512 sampled tops make reports
of thousands of estimates that share the tops' histograms; then, at seed
0 and 10000 samples, sgb in dimensions 8 and 13, which read three bins
of 9 and 14 planes (no reading lies in the 13-simplex or its antipode,
so it exits 2), check and angles of s2-octahedron under round-mc
restricted to a region of 4 planes, whose regions R∩A of a top's 3
planes and A's 4 count three bins, and two checks of s2-octahedron that
exit 2 with UnsupportedMeasure: under an atom at [1, 2, 3] restricted to
a region that holds neither it nor its antipode, and --dichotomy under
round-mc restricted to a hemisphere, whose chart union a restricted
non-atomic measure does not give; then the exact checks of t2-grid
--k 24 and klein-grid --k 24 under their own measure, whose 1152 tops
and 1728 pairings load at size; then pullback of degrees
1-3 with the default covering and with two explicit ones, and of degree 3
with both coverings and atoms within 0.01 of 0 on both sides of the 2 pi
seam, so that matches and deck orbits cross it; then three invocations
with an option that the others make meaningless, each of which exits 2
naming both (a tree that ignores the option exits 0): check --orbit-depth
without --dichotomy, sgb with --random-simplex and --vertices, and sgb
with --vertices and --dim; then check of s2-octahedron restricted to a
region whose one normal is zero (exit 2, ZeroVector); then seven
invocations with a global option that the command does not read, each of
which exits 2 naming the option and the command (a tree that ignores the
option exits 0): angles with --tolerance, and pullback and example (its
-o in the temporary directory below) each with --seed, --samples and
--tolerance; and last the checks of three documents written to a
temporary directory from the first tree's built-ins: the circle of one
vertex, whose one arc's two ends lie in one top and are paired with each
other, s2-octahedron with pairing 0 naming top 0 twice, and t2-grid --k 2
with every edge written as a sorted tuple and its 12 pairings kept (load
gives each repeated tuple to the two tops its pairing names, so it exits
0 with the built-in's report; a tree that deals them round-robin exits
2); all with JSON output.  Each tree runs in one subprocess that writes
no bytecode, with GBM_THREADS=1 so that a tree old enough to read it runs
its Monte Carlo kernel sequentially too.  The script prints how many
invocations are byte-identical, each differing invocation with the
top-level report keys that differ, the largest |delta value| /
std_error over the estimates (objects with "value" and "std_error") at
the same place in both reports, so that a deliberate Monte Carlo change
shows its size in sigma, and the largest |delta| over every
number at the same place, so that a change of rounding alone, which moves
an exact value by an ulp and so reads as inf sigma, shows as such (two
diagnostics of one error type compare the numbers in their details, in
order); and every exit-code change.  It exits 1 if any exit code changed.
"""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

DOCUMENTS = ("s2-octahedron", "rp2-icosahedral", "t2-grid", "klein-grid",
             "s1-polygon")
POINTS = {2: ([0.6, 0.8], [-0.28, 0.96]),
          3: ([0.3, 0.5, 0.8], [-0.7, 0.2, 0.4])}
ROTATION = {2: [[0, -1], [1, 0]], 3: [[0, 0, 1], [1, 0, 0], [0, 1, 0]]}
VERTICES = [[1, 0.2, 0.1], [0.1, 1, 0.3], [0.2, 0.1, 1]]
# two open covers of the circle by arcs shorter than 2 pi / 3, so both are
# adapted to the power maps of degree 1 to 3
COVERINGS = [[[0.3 + 2 * math.pi * j / 9, 1.9] for j in range(9)],
             [[0.1 + 2 * math.pi * j / 7, 1.5] for j in range(7)]]


def _measures(width):
    """The battery's measures on S^(width-1): names and inline specs."""
    first, second = POINTS[width]
    atomic = {"type": "atomic", "atoms": [{"point": first, "weight": 1.2},
                                          {"point": second, "weight": 0.8}]}
    round_mc = {"type": "round", "monte_carlo": True}
    plane = [[0.0] * (width - 2) + [0.6, 0.8]]
    specs = [
        atomic,
        {"type": "orbit", "seed_point": first,
         "generators": [ROTATION[width]]},
        {"type": "mixture", "components": [
            {"weight": 0.5, "measure": round_mc},
            {"weight": 0.5, "measure": atomic}]},
        {"type": "mixture", "components": [
            {"weight": 0.25, "measure": {"type": "round"}},
            {"weight": 0.75, "measure": atomic}]},
        {"type": "restricted", "base": round_mc, "region": plane},
        {"type": "restricted", "base": atomic, "region": plane},
        # a subspace basis must be orthonormal: first, scaled to unit length
        {"type": "restricted", "base": atomic,
         "subspace": [[x / math.hypot(*first) for x in first]]}]
    return ([None, "round", "round-mc", "infinity-line", "atomic-on-edge"]
            + [json.dumps(spec) for spec in specs])


def battery(folder):
    """Every argv of the battery, in a fixed order; example writes into
    folder."""
    runs = []
    exact_mixture = _measures(3)[8]     # 0.25 round + 0.75 atomic
    for seed in ("1", "2"):
        for samples in ("3000", "40000"):
            head = ["--format", "json", "--seed", seed, "--samples", samples]
            for doc in DOCUMENTS:
                width = 2 if doc == "s1-polygon" else 3
                for measure in _measures(width):
                    opt = [] if measure is None else ["--measure", measure]
                    runs += [head + ["check", doc] + opt,
                             head + ["check", doc, "--dichotomy",
                                     "--orbit-depth", "1"] + opt,
                             head + ["angles", doc] + opt]
            runs += [head + ["sgb", "--random-simplex", "--dim", str(d)]
                     for d in (1, 2, 3, 4)]
            runs += [head + ["sgb", "--random-simplex", "--dim", str(d),
                             "--measure", "round"] for d in (1, 2)]
            runs += [head + ["sgb", "--vertices", json.dumps(VERTICES)] + opt
                     for opt in ([], ["--measure", "round"],
                                 ["--measure", exact_mixture])]
            runs += [head + ["invariance", "--measure", measure, "--group",
                             group, "--regions", "5"]
                     for group in ("icosahedral", "klein4", "cyclic:5")
                     for measure in _measures(3)[2:]]
        head = ["--format", "json", "--seed", seed, "--samples", "300000"]
        runs += [head + ["check", "s2-octahedron", "--measure", "round-mc",
                         "--dichotomy"]]
        runs += [head + ["sgb", "--random-simplex", "--dim", str(d)]
                 for d in (4, 5, 6, 7)]
        runs += [head + ["check"] + args + ["--dichotomy"] for args in (
            ["t2-grid", "--k", "6", "--orbit-depth", "2"],
            ["t2-grid", "--k", "6", "--orbit-depth", "2", "--measure",
             "round-mc"],
            ["klein-grid", "--k", "5", "--orbit-depth", "2"],
            ["s1-polygon", "--m", "40", "--measure", "round-mc"],
            ["rp2-icosahedral", "--measure", "round-mc", "--orbit-depth",
             "1"])]
        runs += [head + ["angles", "s1-polygon", "--m", m, "--measure",
                         "round-mc"] for m in ("3", "4")]
        runs += [head + ["check", "t2-grid", "--k", "2", "--measure",
                         "round-mc"]]
        runs += [["--format", "json", "--seed", seed, "--samples", "40000",
                  "check", "t2-grid", "--k", "16", "--measure", "round-mc"]]
    head = ["--format", "json", "--seed", "0", "--samples", "10000"]
    runs += [head + ["sgb", "--random-simplex", "--dim", d]
             for d in ("8", "13")]
    restricted = json.dumps({"type": "restricted", "base": {
        "type": "round", "monte_carlo": True}, "region": [
            [0.1, 0.0, 1.0], [-0.1, 0.0, 1.0], [0.0, 0.1, 1.0],
            [0.0, -0.1, 1.0]]})
    runs += [head + [command, "s2-octahedron", "--measure", restricted]
             for command in ("check", "angles")]
    without_mass = json.dumps({"type": "restricted", "base": {
        "type": "atomic", "atoms": [{"point": [1, 2, 3], "weight": 2}]},
        "region": [[1, 0, 0], [-1, 0, 0.1]]})
    sampled_union = json.dumps({"type": "restricted", "base": {
        "type": "round", "monte_carlo": True}, "region": [[0, 0.6, 0.8]]})
    runs += [head + ["check", "s2-octahedron", "--measure", without_mass],
             head + ["check", "s2-octahedron", "--measure", sampled_union,
                     "--dichotomy"]]
    runs += [["--format", "json", "check", doc, "--k", "24"]
             for doc in ("t2-grid", "klein-grid")]
    for degree, atoms in ((1, [[0.0, 1.0], [2.5, 0.25]]),
                          (2, [[0.0, 1.0], [2.5, 0.25]]),
                          (3, [[0.0, 1.0], [2.5, 0.25]]),
                          (3, [[0.004, 1.0], [-0.006, 0.5]])):
        data = {"degree": degree, "atoms": atoms}
        runs += [["--format", "json", "pullback", json.dumps(
            dict(data, **extra))] for extra in ({}, {"coverings": COVERINGS})]
    runs += [["--format", "json", "--samples", "1000"] + args for args in (
        ["check", "s2-octahedron", "--orbit-depth", "3"],
        ["sgb", "--random-simplex", "--vertices", "[[1, 0], [0, 1]]"],
        ["sgb", "--vertices", json.dumps(VERTICES), "--dim", "5"])]
    runs += [["--format", "json", "check", "s2-octahedron", "--measure",
              json.dumps({"type": "restricted", "base": {"type": "round"},
                          "region": [[0, 0, 0]]})]]
    pullback = ["pullback", '{"degree": 2, "atoms": [[0.1, 1]]}']
    example = ["example", "s1-polygon", "-o",
               str(Path(folder) / "ignored.json")]
    ignored = [("--tolerance", "0.5", ["angles", "s2-octahedron"])]
    ignored += [(option, value, args) for args in (pullback, example)
                for option, value in (("--seed", "3"), ("--samples", "1000"),
                                      ("--tolerance", "0.5"))]
    runs += [["--format", "json", option, value] + args
             for option, value, args in ignored]
    return runs


def write_documents(path, folder):
    """The paths of the battery's three written documents (see above),
    built in folder from the built-ins of the tree at path."""
    folder = Path(folder)
    circle, octahedron, grid = (folder / name for name in (
        "circle.json", "octahedron.json", "grid.json"))
    run_battery(path, [["example", "s2-octahedron", "-o", str(octahedron)],
                       ["example", "t2-grid", "--k", "2", "-o", str(grid)]])
    document = json.loads(octahedron.read_text())
    document["pairings"][0]["simplex_b"] = 0
    octahedron.write_text(json.dumps(document))
    document = json.loads(grid.read_text())
    document["faces"]["1"] = [sorted(e) for e in document["faces"]["1"]]
    grid.write_text(json.dumps(document))
    c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
    turn = [[c, -s], [s, c]]
    circle.write_text(json.dumps({
        "dim": 1, "vertices": 1, "faces": {"0": [[0]], "1": [[0, 0]]},
        "developed": [[[1.0, 0.0], [c, s]]], "holonomy_generators": [turn],
        "pairings": [{"face": 0, "simplex_a": 0, "simplex_b": 0,
                      "matrix": turn}]}))
    return [str(p) for p in (circle, octahedron, grid)]


_RUNNER = """
import contextlib, io, json, sys
from gbmeasure.cli import main
results = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
    results.append([code, out.getvalue()])
json.dump(results, sys.stdout)
"""


def run_battery(path, runs):
    """[exit code, output] per argv of runs, from the tree at path."""
    src = Path(path) / "src" if (Path(path) / "src").is_dir() else Path(path)
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), GBM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-B", "-c", _RUNNER],
                          input=json.dumps(runs), env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def differing_keys(old, new):
    """Top-level report keys whose values differ, or ["<output>"] when a
    report is no JSON object."""
    try:
        a, b = json.loads(old), json.loads(new)
    except ValueError:
        return ["<output>"]
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return ["<output>"]
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def _shifts(a, b):
    """|delta value| / std_error of each estimate at the same place in the
    parsed reports a and b, over the larger of the two std_errors; an exact
    estimate (std_error 0 in both) that moved shifts by inf."""
    if isinstance(a, dict) and isinstance(b, dict):
        if {"value", "std_error"} <= set(a) & set(b):
            delta = abs(a["value"] - b["value"])
            sigma = max(a["std_error"], b["std_error"])
            return [delta / sigma if sigma else
                    (math.inf if delta else 0.0)]
        return [s for k in set(a) & set(b) for s in _shifts(a[k], b[k])]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [s for x, y in zip(a, b) for s in _shifts(x, y)]
    return []


def estimate_shift(old, new):
    """The largest |delta value| / std_error over the estimates of two
    reports (see _shifts), or None when no estimate pairs up."""
    try:
        shifts = _shifts(json.loads(old), json.loads(new))
    except ValueError:
        return None
    return max(shifts, default=None)


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _changes(a, b):
    """|delta| of each number (not a boolean) at the same place in the
    parsed reports a and b; two diagnostics of one error type pair the
    numbers in their details in order."""
    if isinstance(a, dict) and isinstance(b, dict):
        if (set(a) == set(b) == {"error", "detail"}
                and a["error"] == b["error"]):
            a, b = ([float(x) for x in _NUMBER.findall(d["detail"])]
                    for d in (a, b))
        else:
            return [c for k in set(a) & set(b) for c in _changes(a[k], b[k])]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [c for x, y in zip(a, b) for c in _changes(x, y)]
    numbers = [isinstance(x, (int, float)) and not isinstance(x, bool)
               for x in (a, b)]
    return [abs(a - b)] if all(numbers) else []


def largest_change(old, new):
    """The largest |delta| over the numbers of two reports (see _changes),
    or None when no number pairs up."""
    try:
        changes = _changes(json.loads(old), json.loads(new))
    except ValueError:
        return None
    return max(changes, default=None)


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: compare_reports.py OLD_SRC NEW_SRC")
    with tempfile.TemporaryDirectory() as folder:
        runs = battery(folder) + [["--format", "json", "check", doc]
                            for doc in write_documents(argv[0], folder)]
        old, new = (run_battery(path, runs) for path in argv)
    same, code_changes = 0, 0
    for args, (old_code, old_out), (new_code, new_out) in zip(runs, old, new):
        if (old_code, old_out) == (new_code, new_out):
            same += 1
            continue
        line = "DIFFERS %s: %s" % (" ".join(args),
                                   differing_keys(old_out, new_out))
        shift = estimate_shift(old_out, new_out)
        change = largest_change(old_out, new_out)
        if shift is not None:
            line += " max shift %.3g sigma" % shift
        if change is not None:
            line += " max change %.3g" % change
        if shift is None and change is None:
            line += " no estimate"
        if old_code != new_code:
            code_changes += 1
            line += " exit %s -> %s" % (old_code, new_code)
        print(line)
    print("%d of %d invocations identical, %d exit codes changed"
          % (same, len(runs), code_changes))
    return 1 if code_changes else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

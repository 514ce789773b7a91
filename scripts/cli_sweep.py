#!/usr/bin/env python3
"""Run a fixed list of CLI calls in-process and print one digest of their output.

    PYTHONPATH=src python3 scripts/cli_sweep.py
    PYTHONPATH=src python3 scripts/cli_sweep.py guards
    PYTHONPATH=src python3 scripts/cli_sweep.py tables

Every command runs in CSV, JSON and its default format, next to error
cases (infeasible energies, state and size caps, NaN lattice steps, grids
and amplitudes, broken model files, usage errors) and the calls of the
benchmark's gas-exact rounds for seeds 1 to 8.  `gas fit` also runs at
m = 40 and 1000, and `ontology validate` and `check` on a 300-state model,
so that the last bits of the fit's sums and of the outcome law show.  The script prints the call
count and one sha256 over each call's argv, exit code, stdout and stderr.
Two checkouts print the same digest when every call gives the same bytes;
to compare one with another, copy this file into the other's scripts/ and
run it against that checkout's src/.

With the argument `guards` it runs the guard family instead: the binning
cap at one below and at the count for 40 drawn specs, and specs past the
particle cap, so that the order of the exact core's guards shows.  With
`tables` it runs the binning-table family: `gas enumerate` and `argmax`
in every format at m = 1 to 8, each to stdout and again to a file given
by --out, whose bytes join the digest.

The calls run in a temporary directory that holds the model files, so no
path in an argv or a message depends on where the checkout lives.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

from microcanon import cli, ensemble

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ([], ["--format", "csv"], ["--format", "json"])

# model files the ontology calls read, written next to copies of the fixtures
BROKEN_MODELS = {
    "not_json.json": "{",
    "no_measurements.json": '{"lambda": ["a"], "preparations": [{"name": "P", "mu": [1.0]}]}',
    "nan_mu.json": '{"lambda": ["a", "b"], "preparations": [{"name": "P", "mu": [NaN, 1.0]}],'
                   ' "measurements": [{"name": "M", "outcomes": ["x"], "xi": [[1.0, 1.0]]}]}',
    "bool_mu.json": '{"lambda": ["a", "b"], "preparations": [{"name": "P", "mu": [true, false]}],'
                    ' "measurements": [{"name": "M", "outcomes": ["x"], "xi": [[1.0, 1.0]]}]}',
    "ragged_xi.json": '{"lambda": ["a", "b"], "preparations": [{"name": "P", "mu": [0.5, 0.5]}],'
                      ' "measurements": [{"name": "M", "outcomes": ["x", "y"],'
                      ' "xi": [[1.0, 0.0], [0.0]]}]}',
}


def large_model() -> dict:
    """A 300-state model with Born targets, drawn from a fixed seed: six
    preparations, four measurements of 2 to 5 outcomes.  Three columns of
    the first measurement are broken (scaled by 1.01, one outcome negative,
    all -0.0), so validate prints column sums."""
    rng = random.Random("cli-sweep-model")
    n_lam = 300
    preparations = []
    for p in range(6):
        w = [rng.uniform(0.05, 1.0) if rng.random() < 0.5 else 0.0 for _ in range(n_lam)]
        preparations.append({"name": f"P{p}", "mu": [x / sum(w) for x in w]})
    measurements = []
    for k, n_out in enumerate((2, 3, 4, 5)):
        cols = []
        for _ in range(n_lam):
            w = [rng.uniform(0.05, 1.0) for _ in range(n_out)]
            cols.append([x / sum(w) for x in w])
        measurements.append({"name": f"M{k}", "outcomes": [f"o{j}" for j in range(n_out)],
                             "xi": [[col[j] for col in cols] for j in range(n_out)]})
    xi = measurements[0]["xi"]
    xi[0][10], xi[1][10] = 1.01 * xi[0][10], 1.01 * xi[1][10]
    xi[0][20], xi[1][20] = -xi[0][20], xi[1][20] + 2 * xi[0][20]
    xi[0][30] = xi[1][30] = -0.0
    targets = {p["name"]: {m["name"]: [math.fsum(x * q for x, q in zip(row, p["mu"]))
                                       for row in m["xi"]] for m in measurements}
               for p in preparations}
    return {"lambda": [f"l{i}" for i in range(n_lam)], "preparations": preparations,
            "measurements": measurements, "born_targets": targets}


def gas_exact_calls(seed: int) -> list[list[str]]:
    """The gas-exact round of bench/workloads.py for one seed, unshuffled.

    Same random draws in the same order; tests/test_scripts.py checks that
    the two lists agree.
    """
    rng = random.Random(f"gas-exact:{seed}")
    slots = [
        ("enumerate", 5, 24, 0.45), ("enumerate", 5, 32, 0.47), ("enumerate", 5, 40, 0.44),
        ("enumerate", 5, 44, 0.48), ("enumerate", 6, 24, 0.46), ("enumerate", 6, 28, 0.44),
        ("argmax", 5, 26, 0.46), ("argmax", 5, 34, 0.44), ("argmax", 5, 38, 0.48),
        ("argmax", 5, 44, 0.45), ("argmax", 6, 25, 0.47), ("argmax", 6, 29, 0.45),
        ("measure", 5, 26, 0.44), ("measure", 5, 32, 0.48), ("measure", 5, 38, 0.45),
        ("measure", 6, 22, 0.46), ("measure", 6, 25, 0.44),
        ("fit", 5, 24, 0.3), ("fit", 5, 36, 0.45), ("fit", 6, 30, 0.6), ("fit", 6, 44, 0.4),
    ]
    calls = []
    for j, (command, m, n, share) in enumerate(slots):
        excess = min(max(round(share * n * (m - 1)), 1), n * (m - 1) - 1) + rng.randint(-1, 1)
        eps0_units, delta = rng.choice((0, 1, 2)), rng.choice((1.0, 0.5, 2.0))
        argv = ["gas", command, "--n", str(n), "--m", str(m),
                "--e", str(excess + n * eps0_units)]
        if eps0_units:
            argv += ["--eps0-units", str(eps0_units)]
        if delta != 1.0:
            argv += ["--delta", repr(delta)]
        calls.append(argv + ["--format", "json" if j % 2 else "csv"])
    for j in range(3):
        n = round(10 ** rng.uniform(1.7, 3.7))
        argv = ["gas", "solve", "--n", str(n), "--t", repr(round(rng.uniform(0.5, 3.0), 4)),
                "--eps0", repr(round(rng.uniform(0.1, 5.0), 4))]
        if j == 2:
            argv += ["--k", "1.380649"]
        calls.append(argv + ["--format", "json" if j % 2 else "csv"])
    return calls


def gas_specs() -> list[list[str]]:
    """Spec flags: every energy end and the middle at seven sizes, one step
    past the top, and four offsets or lattice steps."""
    specs = []
    for n, m in ((1, 1), (3, 1), (1, 3), (3, 3), (5, 4), (8, 5), (6, 6)):
        top = n * (m - 1)
        for e in sorted({0, top // 2, top, top + 1}):
            specs.append(["--n", str(n), "--m", str(m), "--e", str(e)])
    return specs + [["--n", "5", "--m", "4", "--e", "7", "--eps0-units", "1"],
                    ["--n", "5", "--m", "4", "--e", "6", "--delta", "0.1"],
                    ["--n", "5", "--m", "4", "--e", "6", "--delta", "1e308"],
                    ["--n", "5", "--m", "4", "--e", "6", "--delta", "nan"]]


def calls() -> list[list[str]]:
    """Every call of the sweep, in the order it runs them."""
    out = []
    for spec in gas_specs():
        for command in ("enumerate", "argmax", "measure", "fit"):
            out += [["gas", command, *spec, *fmt] for fmt in FORMATS]
    for spec in (["--n", "400", "--m", "40", "--e", "7000"],
                 ["--n", "2000", "--m", "1000", "--e", "666000"]):
        out += [["gas", "fit", *spec, *fmt] for fmt in FORMATS]
    out += [
        ["gas", "enumerate", "--n", "300", "--m", "3", "--e", "300", "--format", "json"],
        ["gas", "argmax", "--n", "300", "--m", "4", "--e", "450"],
        ["gas", "enumerate", "--n", "12", "--m", "4", "--e", "15", "--max-states", "5"],
        ["gas", "measure", "--n", "20001", "--m", "2", "--e", "3"],
        ["gas", "enumerate", "--n", "3", "--m", "10001", "--e", "2"],
    ]
    for walk in (["--n", "5", "--m", "3", "--e", "4", "--steps", "100", "--seed", "1"],
                 ["--n", "8", "--m", "5", "--e", "16", "--steps", "3000", "--seed", "2"],
                 ["--n", "1", "--m", "1", "--e", "0", "--steps", "1", "--seed", "3"]):
        out += [["gas", "sample", *walk, *fmt] for fmt in FORMATS]
    out += [["gas", "sample", "--n", "3", "--m", "10001", "--e", "2", "--steps", "2",
             "--seed", "1"],
            ["gas", "sample", "--n", "3", "--m", "3", "--e", "2", "--steps", "0", "--seed", "1"]]
    for solve in (["--n", "1000", "--t", "1.5", "--eps0", "0.3"],
                  ["--n", "50", "--t", "2", "--k", "1.380649"],
                  ["--n=1e-320", "--t=inf"]):
        out += [["gas", "solve", *solve, *fmt] for fmt in FORMATS]
    models = ["marbles.json", "invalid_model.json", *BROKEN_MODELS, "missing.json",
              "large_model.json"]
    for model in models:
        for command in ("validate", "check", "classify"):
            out += [["ontology", command, model, *fmt] for fmt in FORMATS]
    for pair in (["A", "B"], ["C", "D"], ["A", "A"], ["A", "Z"]):
        out += [["ontology", "overlap", "marbles.json", "--pair", *pair, *fmt]
                for fmt in FORMATS]
    for demo in ([], ["--q-grid", "0.5"], ["--q-grid", "nan"], ["--q-grid", "1.5"],
                 ["--q-grid", "x"], ["--q-grid", ""], ["--q-grid", "5e-324,1e-6"],
                 ["--method", "grid", "--resolution", "8", "--q-grid", "0.3"]):
        out += [["pbr", "demo", *demo, *fmt] for fmt in FORMATS]
    for scan in (["--eps-grid", "0,0.01"], ["--eps-grid", "nan"], ["--eps-grid", "0.2,0.1"],
                 ["--eps-grid", "0.05", "--method", "grid", "--resolution", "4"]):
        out += [["pbr", "scan", *scan, *fmt] for fmt in FORMATS]
    for a, b in (("0.6", "0.8"), ("0.6+0j", "0.8j"), ("1", "1"), ("nan", "0"), ("0", "nan"),
                 ("x", "1")):
        out += [["pbr", "cat", "--a", a, "--b", b, *fmt] for fmt in FORMATS]
    out += [["gas"], ["gas", "solve", "--n"], ["bogus"],
            ["gas", "fit", "--n", "3", "--m", "3", "--e", "2", "--max-states", "5"]]
    for seed in range(1, 9):
        out += gas_exact_calls(seed)
    return out


def guard_calls() -> list[list[str]]:
    """`gas enumerate`, `argmax` and `measure` at --max-states count - 1 and
    count for 40 specs drawn from a fixed seed (N <= 30, m <= 8, offsets
    0-2), the count from ensemble.count_binnings; then specs past
    MAX_EXACT_PARTICLES (20,000), with and without a cap they pass."""
    rng = random.Random("cli-sweep-guards")
    out = []
    for _ in range(40):
        n, m, eps0_units = rng.randint(1, 30), rng.randint(1, 8), rng.randint(0, 2)
        e = rng.randint(0, n * (m - 1)) + n * eps0_units
        count = ensemble.count_binnings(
            ensemble.GasSpec(n=n, m=m, e_units=e, eps0_units=eps0_units), max_states=10 ** 9)
        for command in ("enumerate", "argmax", "measure"):
            out += [["gas", command, "--n", str(n), "--m", str(m), "--e", str(e),
                     "--eps0-units", str(eps0_units), "--max-states", str(cap)]
                    for cap in (count - 1, count)]
    for spec in (["--n", "200000000", "--m", "3", "--e", "200000000"],
                 ["--n", "20001", "--m", "4", "--e", "20001", "--max-states", "10"],
                 ["--n", "20001", "--m", "3", "--e", "5"],
                 ["--n", "1000000", "--m", "2", "--e", "500000"]):
        out += [["gas", command, *spec] for command in ("enumerate", "argmax", "measure")]
    return out


def table_calls() -> list[list[str]]:
    """`gas enumerate` and `argmax` in every format at m = 1 to 8, N up to
    40 (20 at m >= 7) and both energy ends and the middle, each also with
    --out; then the argmax at (9100, 3, 9100), whose Omega has 4,338 digits."""
    out = []
    for m in range(1, 9):
        for n in (1, 2, 5, 13, 40 if m < 7 else 20):
            top = n * (m - 1)
            for e in sorted({0, top // 2, top}):
                for command in ("enumerate", "argmax"):
                    argv = ["gas", command, "--n", str(n), "--m", str(m), "--e", str(e)]
                    out += [[*argv, *fmt, *to] for fmt in FORMATS
                            for to in ([], ["--out", "table.out"])]
    argv = ["gas", "argmax", "--n", "9100", "--m", "3", "--e", "9100"]
    return out + [[*argv, *fmt, *to] for fmt in FORMATS for to in ([], ["--out", "table.out"])]


def record(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    families = {(): calls, ("guards",): guard_calls, ("tables",): table_calls}
    if tuple(sys.argv[1:]) not in families:
        print("usage: cli_sweep.py [guards | tables]", file=sys.stderr)
        return 2
    sweep = families[tuple(sys.argv[1:])]()
    digest = hashlib.sha256()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "fixtures" / "marbles.json", tmp)
        shutil.copy(ROOT / "tests" / "data" / "invalid_model.json", tmp)
        for name, text in BROKEN_MODELS.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        Path(tmp, "large_model.json").write_text(json.dumps(large_model()), encoding="utf-8")
        os.chdir(tmp)
        try:
            for argv in sweep:
                digest.update(json.dumps([argv, *record(argv)]).encode("utf-8") + b"\n")
                if "--out" in argv:  # the file's bytes, then remove it for the next call
                    written = Path(argv[argv.index("--out") + 1])
                    digest.update(written.read_bytes())
                    written.unlink()
        finally:
            os.chdir(here)
    print(f"calls {len(sweep)}")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

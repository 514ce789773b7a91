"""Command-line interface: formats, exit codes, determinism."""

import contextlib
import csv
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy
import pytest

from microcanon import cli, ensemble, ontology, pbr

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
MARBLES = str(FIXTURES / "marbles.json")
# stdout, stderr and exit code of CLI calls: gas enumerate/argmax/measure,
# recorded from the release before Omega became exact at every N; pbr
# demo/scan, recorded from the release before the grid descent scored all
# candidate columns in one array pass; every other command, recorded
# from the release before one emitter wrote all CSV and JSON output; and
# the gas fit/solve and pbr scan cases added with them, recorded from the
# release before the three root solves shared one bisection; and the gas
# measure cases for the SizeLimit exit and for outcome names at delta
# 1e6 and 0.1, recorded from the release before the gas bridge stopped
# storing its float model; and the gas sample cases at 65,535 to 200,001
# steps, recorded from the release before the walk drew its random
# numbers in fixed-size chunks; and the exit-1 gas measure case at
# delta 1e308, recorded when GasSpec began to reject an infinite top bin
# energy; and the exit-2 pbr cat --format csv case, re-recorded when
# pbr cat stopped accepting a format it ignored; and the gas sample cases
# at one bin, one particle, both energy ends, two and twelve bins, one
# step and 255 to 70,000 particles, recorded from the release before the
# walk kept its binning as one int; and the exit-1 gas sample case at
# 10,001 bins, recorded when the walk began to apply MAX_BINS; and the
# gas enumerate and argmax cases at m = 5 and 6 with a ground offset and
# lattice step, recorded from the release before the emitter stopped
# calling json.dumps; and the exit-1 pbr cat case at a NaN amplitude,
# recorded when cat_fixture began to reject a NaN norm; and the gas
# enumerate and argmax cases at one and two bins and the argmax at
# (9100, 3, 9100), whose Omega has 4,338 digits, recorded from the release
# before binning tables were written from one row template.  The gas fit cases
# at (60, 4, 75) and (400, 40, 7000) were re-recorded when the fit moved
# from numpy to math.exp and builtin sums, which changed their last digits.
# "{repo}" in an argv stands for the repository root.
DATA = Path(__file__).resolve().parent / "data"
GOLDEN = {argv: want
          for name in ("gas_cli_golden.json", "pbr_cli_golden.json", "cli_golden.json")
          for argv, want in json.loads((DATA / name).read_text(encoding="utf-8")).items()}


@contextlib.contextmanager
def unlimited_int_digits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "microcanon.cli", *args],
        capture_output=True, text=True, timeout=120,
    )


class TestExitCodes:
    def test_success_is_zero(self):
        proc = run_cli("gas", "enumerate", "--n", "3", "--m", "3", "--e", "2")
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_computation_error_is_one(self):
        proc = run_cli("gas", "enumerate", "--n", "1", "--m", "3", "--e", "5")
        assert proc.returncode == 1
        err = json.loads(proc.stderr)
        assert err["error"] == "InfeasibleEnergy"
        assert "message" in err

    def test_usage_error_is_two(self):
        proc = run_cli("gas", "solve", "--n")
        assert proc.returncode == 2
        proc = run_cli("gas", "solve", "--t", "1")
        assert proc.returncode == 2  # --n missing

    def test_missing_model_file_is_one(self):
        proc = run_cli("ontology", "validate", "/nonexistent/model.json")
        assert proc.returncode == 1


class TestGasCommands:
    def test_enumerate_csv(self):
        proc = run_cli("gas", "enumerate", "--n", "3", "--m", "3", "--e", "2")
        lines = proc.stdout.splitlines()
        assert lines[0] == "binning,omega,entropy,mu"
        assert len(lines) == 3
        assert "[1, 2, 0]" in lines[1]
        assert "[2, 0, 1]" in lines[2]

    def test_argmax_reports_ties(self):
        proc = run_cli("gas", "argmax", "--n", "3", "--m", "3", "--e", "2")
        assert proc.returncode == 0
        assert proc.stdout.count("\n") == 3  # header + two tied maximizers

    def test_solve_value(self):
        proc = run_cli("gas", "solve", "--n", "1000", "--t", "1")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "e1"
        assert float(lines[1]) == pytest.approx(1000.0, rel=1e-9)

    def test_solve_boltzmann_scale(self):
        plain = run_cli("gas", "solve", "--n", "1000", "--t", "2")
        scaled = run_cli("gas", "solve", "--n", "1000", "--t", "1", "--k", "2")
        assert plain.stdout == scaled.stdout

    def test_sample_deterministic(self):
        args = ("gas", "sample", "--n", "3", "--m", "3", "--e", "2",
                "--steps", "20000", "--seed", "42", "--format", "json")
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        counts = json.loads(a.stdout)
        assert set(counts) == {"[1, 2, 0]", "[2, 0, 1]"}
        assert sum(counts.values()) == 20000

    def test_walk_length_is_capped_before_any_draw(self, monkeypatch, capsys):
        def no_draw(seed):
            raise AssertionError("the walk drew random numbers")
        monkeypatch.setattr(numpy.random, "default_rng", no_draw)
        argv = ["gas", "sample", "--n", "3", "--m", "3", "--e", "2",
                "--steps", str(ensemble.MAX_WALK_STEPS + 1), "--seed", "1"]
        assert cli.run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "SizeLimit",
                                   "message": f"more than {ensemble.MAX_WALK_STEPS} walk steps"}

    def test_walk_bins_are_capped_before_any_draw(self, monkeypatch, capsys):
        def no_draw(seed):
            raise AssertionError("the walk drew random numbers")
        monkeypatch.setattr(numpy.random, "default_rng", no_draw)
        argv = ["gas", "sample", "--n", "3", "--m", str(ensemble.MAX_BINS + 1), "--e", "2",
                "--steps", "2", "--seed", "1"]
        assert cli.run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "SizeLimit",
                                   "message": f"more than {ensemble.MAX_BINS} bins"}

    def test_walk_particles_are_capped_before_allocation(self, monkeypatch, capsys):
        def no_levels(spec):
            raise AssertionError("the walk allocated its level list")
        monkeypatch.setattr(ensemble, "_initial_microstate", no_levels)
        argv = ["gas", "sample", "--n", str(ensemble.MAX_WALK_PARTICLES + 1), "--m", "3",
                "--e", "2", "--steps", "10", "--seed", "1"]
        assert cli.run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {
            "error": "SizeLimit", "message": f"more than {ensemble.MAX_WALK_PARTICLES} walk particles"}

    def test_bin_count_is_capped_before_enumeration(self, capsys):
        argv = ["gas", "enumerate", "--n", "3", "--m", str(ensemble.MAX_BINS + 1), "--e", "2"]
        assert cli.run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "SizeLimit",
                                   "message": f"more than {ensemble.MAX_BINS} bins"}

    def test_state_cap_is_decided_without_enumerating(self, capsys):
        # 1e8 first-bin choices, each one binning; the particle cap comes
        # before the binning cap, so nothing is counted
        argv = ["gas", "enumerate", "--n", "200000000", "--m", "3", "--e", "200000000"]
        t0 = time.perf_counter()
        assert cli.run(argv) == 1
        assert time.perf_counter() - t0 < 3.0
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "SizeLimit",
                                   "message": f"more than {ensemble.MAX_EXACT_PARTICLES} particles"}

    @pytest.mark.parametrize("command", ["enumerate", "argmax", "measure"])
    @pytest.mark.parametrize("n,m,e", [(20_000, 10_000, 20_000), (20_000, 1000, 200_000),
                                       (20_000, 10_000, 10 ** 8)])
    def test_state_cap_is_decided_without_listing(self, command, n, m, e, monkeypatch, capsys):
        # the cap is decided by counting partitions; walking the occupancy
        # ranges up to the cap used to take from 20 s to minutes here
        def unlisted(spec):
            raise AssertionError("walked the occupancy ranges")
        monkeypatch.setattr(ensemble, "_last_free_ranges", unlisted)
        argv = ["gas", command, "--n", str(n), "--m", str(m), "--e", str(e)]
        t0 = time.perf_counter()
        assert cli.run(argv) == 1
        assert time.perf_counter() - t0 < 3.0
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "SizeLimit",
                                   "message": "more than 1000000 binning states"}

    def test_large_state_cap_is_decided_in_bounded_work(self, capsys):
        # 2.7e10 binnings; a walk took 2.5 s to pass 10^7 of them
        argv = "gas argmax --n 300 --m 8 --e 700 --max-states 10000000000".split()
        t0 = time.perf_counter()
        assert cli.run(argv) == 1
        assert time.perf_counter() - t0 < 3.0
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "SizeLimit",
                                   "message": "more than 10000000000 binning states"}

    @pytest.mark.parametrize("command", ["enumerate", "argmax", "measure"])
    def test_particle_count_is_capped(self, command, capsys):
        # one binning, but its exact Omega or law would take minutes to print or count
        argv = ["gas", command, "--n", "1000000", "--m", "2", "--e", "500000"]
        t0 = time.perf_counter()
        assert cli.run(argv) == 1
        assert time.perf_counter() - t0 < 3.0
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {
            "error": "SizeLimit",
            "message": f"more than {ensemble.MAX_EXACT_PARTICLES} particles"}

    @pytest.mark.parametrize("argv", sorted(
        argv for argv, want in GOLDEN.items()
        if argv.startswith(("gas argmax", "gas measure")) and want["code"] == 0))
    def test_measure_and_argmax_list_no_binnings(self, argv, monkeypatch, capsys):
        # no listing runs; nor does a count where C(n+m-1, m-1) is within the
        # default cap, as in every golden case but the argmax at (9100, 3, 9100)
        def unlisted(*args, **kwargs):
            raise AssertionError("listed or counted binnings")
        monkeypatch.setattr(ensemble, "enumerate_binnings", unlisted)
        flags = dict(zip(argv.split()[2::2], argv.split()[3::2]))
        n, m = int(flags["--n"]), int(flags["--m"])
        if math.comb(n + m - 1, m - 1) <= ensemble.DEFAULT_STATE_CAP:
            monkeypatch.setattr(ensemble, "_binning_count", unlisted)
        assert cli.run(argv.split()) == 0
        assert capsys.readouterr() == (GOLDEN[argv]["stdout"], "")

    def test_fit_output(self):
        proc = run_cli("gas", "fit", "--n", "60", "--m", "4", "--e", "75",
                       "--format", "json")
        doc = json.loads(proc.stdout)
        pred = doc["predicted"]
        assert sum(pred) == pytest.approx(60.0, rel=1e-10)
        assert "alpha" in doc and "beta" in doc

    def test_measure_distribution(self):
        proc = run_cli("gas", "measure", "--n", "3", "--m", "3", "--e", "2",
                       "--format", "json")
        doc = json.loads(proc.stdout)
        probs = [row["p"] for row in doc]
        assert probs == pytest.approx([0.5, 1 / 3, 1 / 6], abs=1e-12)

    def test_measure_does_not_build_the_float_model(self, monkeypatch, capsys):
        def unread(self):
            raise AssertionError("gas measure built GasOntModel.model")
        monkeypatch.setattr(ontology.GasOntModel, "model", property(unread))
        argv = "gas measure --n 6 --m 4 --e 6 --delta 0.1 --format csv"
        assert cli.run(argv.split()) == 0
        assert capsys.readouterr() == (GOLDEN[argv]["stdout"], "")

    def test_many_bins_do_not_recurse(self):
        proc = run_cli("gas", "enumerate", "--n", "1", "--m", "1500", "--e", "3")
        assert proc.returncode == 0
        assert proc.stderr == ""
        lines = proc.stdout.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith('"[0, 0, 0, 1, 0, ')

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_omega_beyond_default_int_digits(self, fmt):
        # C(15000, 7500) has 4,514 digits, past Python's default 4,300
        proc = run_cli("gas", "enumerate", "--n", "15000", "--m", "2", "--e", "7500",
                       "--format", fmt)
        assert proc.returncode == 0
        assert proc.stderr == ""
        with unlimited_int_digits():
            omega = math.comb(15000, 7500)
            if fmt == "json":
                (row,) = json.loads(proc.stdout)
                assert row["omega"] == omega
                assert row["mu"] == 1.0
            else:
                header, row = proc.stdout.splitlines()
                binning, omega_text, _, mu_text = next(csv.reader([row]))
                assert (binning, omega_text, mu_text) == ("[7500, 7500]", str(omega), "1")

    def test_argv_keeps_the_default_int_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(SystemExit) as exc:
            cli.run(["gas", "enumerate", "--n", "1" * (limit + 1), "--m", "2", "--e", "1"])
        assert exc.value.code == 2
        assert cli.run(["gas", "enumerate", "--n", "3", "--m", "3", "--e", "2"]) == 0
        assert sys.get_int_max_str_digits() == limit

    def test_output_file(self, tmp_path):
        out = tmp_path / "states.csv"
        proc = run_cli("gas", "enumerate", "--n", "3", "--m", "3", "--e", "2",
                       "--out", str(out))
        assert proc.returncode == 0
        assert out.read_text().startswith("binning,omega")


class TestOntologyCommands:
    def test_validate_clean_model(self):
        proc = run_cli("ontology", "validate", MARBLES)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["valid"] is True
        assert doc["violations"] == []

    def test_overlap_pair(self):
        proc = run_cli("ontology", "overlap", MARBLES, "--pair", "E", "F")
        lines = proc.stdout.splitlines()
        assert lines[0] == "class,omega,common_support"
        cls, omega, common = lines[1].split(",")
        assert cls == "partial"
        assert float(omega) == pytest.approx(0.25)
        assert common == "R"

    def test_check_deviation(self):
        proc = run_cli("ontology", "check", MARBLES, "--format", "json")
        doc = json.loads(proc.stdout)
        assert doc["max_deviation"] == 0.0

    def test_classify(self):
        proc = run_cli("ontology", "classify", MARBLES, "--format", "json")
        doc = json.loads(proc.stdout)
        assert "minimal" in doc["verdict"]

    def test_classify_short_mu_is_error(self, tmp_path):
        doc = json.loads(Path(MARBLES).read_text(encoding="utf-8"))
        doc["preparations"][0]["mu"] = doc["preparations"][0]["mu"][:-1]
        model_path = tmp_path / "short.json"
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        proc = run_cli("ontology", "classify", str(model_path))
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["error"] == "DimensionMismatch"

    @pytest.mark.parametrize("command", [
        ("validate",), ("check",), ("overlap", "--pair", "A", "B"), ("classify",),
    ], ids=lambda c: c[0])
    @pytest.mark.parametrize("malformed", ["list-document", "int-mu", "bool-mu"])
    def test_malformed_model_is_a_json_diagnostic(self, tmp_path, command, malformed):
        doc = json.loads(Path(MARBLES).read_text(encoding="utf-8"))
        if malformed == "list-document":
            doc = [doc]
        elif malformed == "int-mu":
            doc["preparations"][0]["mu"] = 5
        else:
            doc["preparations"][0]["mu"] = [True, False, False, False]
        model_path = tmp_path / "malformed.json"
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        proc = run_cli("ontology", command[0], str(model_path), *command[1:])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["error"] == "SchemaError"

    def test_check_short_mu_is_error(self, tmp_path):
        doc = json.loads((DATA / "invalid_model.json").read_text(encoding="utf-8"))
        doc["born_targets"]["A"] = {"color": [0.5, 0.5, 0.0]}
        model_path = tmp_path / "short.json"
        model_path.write_text(json.dumps(doc), encoding="utf-8")
        proc = run_cli("ontology", "check", str(model_path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr) == {
            "error": "DimensionMismatch",
            "message": "preparation A has 2 mu entries over 3 states",
        }

    def test_unknown_preparation_is_error(self):
        proc = run_cli("ontology", "overlap", MARBLES, "--pair", "A", "Z")
        assert proc.returncode == 1


class TestPbrCommands:
    def test_demo_curve(self):
        proc = run_cli("pbr", "demo", "--q-grid", "0,0.5,1.0")
        lines = proc.stdout.splitlines()
        assert lines[0] == "q,min_forbidden_prob"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]
        vals = [float(r[1]) for r in rows]
        assert vals[0] == pytest.approx(0.0, abs=1e-9)
        assert vals[1] == pytest.approx(0.0625, abs=1e-9)
        assert vals[2] == pytest.approx(0.25, abs=1e-9)

    def test_scan_requires_grid(self):
        proc = run_cli("pbr", "scan")
        assert proc.returncode == 2

    def test_scan_curve(self):
        proc = run_cli("pbr", "scan", "--eps-grid", "0,0.0625")
        lines = proc.stdout.splitlines()
        assert lines[0] == "eps,q_max"
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert float(first[1]) == 0.0
        assert float(second[1]) == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("argv", [
        ("demo", "--method", "grid", "--resolution", "0"),
        ("demo", "--method", "grid", "--resolution", "-3"),
        ("scan", "--eps-grid", "nan"),
        ("scan", "--eps-grid", "0.1,nan"),
    ])
    def test_bad_input_is_a_json_diagnostic(self, argv):
        proc = run_cli("pbr", *argv)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["error"] == "DomainError"

    def test_cat_round_trips_through_validate(self, tmp_path):
        model_path = tmp_path / "cat.json"
        proc = run_cli("pbr", "cat", "--a", "0.6", "--b", "0.8",
                       "--out", str(model_path))
        assert proc.returncode == 0
        check = run_cli("ontology", "validate", str(model_path))
        assert check.returncode == 0
        assert json.loads(check.stdout)["valid"] is True
        dev = run_cli("ontology", "check", str(model_path), "--format", "json")
        assert json.loads(dev.stdout)["max_deviation"] == 0.0

    def test_cat_bad_amplitudes(self):
        proc = run_cli("pbr", "cat", "--a", "1", "--b", "1")
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["error"] == "NormalizationError"

    def test_cat_overflowing_amplitude(self, capsys):
        # |1e200|^2 overflows the float range; it used to escape as a traceback
        assert cli.run(["pbr", "cat", "--a", "1e200", "--b", "0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "NormalizationError",
                                   "message": "|a|^2 + |b|^2 = inf"}

    @pytest.mark.parametrize("command", ["demo", "scan"])
    def test_grid_resolution_is_capped_before_the_grid(self, monkeypatch, capsys, command):
        def no_grid(resolution, parts):
            raise AssertionError("the grid descent built its candidates")
        monkeypatch.setattr(pbr, "_simplex_grid", no_grid)
        argv = ["pbr", command, "--method", "grid",
                "--resolution", str(pbr.MAX_GRID_RESOLUTION + 1)]
        argv += ["--q-grid", "0.5"] if command == "demo" else ["--eps-grid", "0.1"]
        assert cli.run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {
            "error": "SizeLimit",
            "message": f"grid resolution {pbr.MAX_GRID_RESOLUTION + 1} > {pbr.MAX_GRID_RESOLUTION}"}



@pytest.mark.parametrize("argv", [
    ("gas", "fit", "--n", "3", "--m", "3", "--e", "2", "--max-states", "5"),
    ("gas", "sample", "--n", "3", "--m", "3", "--e", "2", "--steps", "10", "--seed", "1",
     "--max-states", "5"),
    ("pbr", "cat", "--a", "0.6", "--b", "0.8", "--format", "csv"),
])
def test_options_a_command_would_ignore_are_usage_errors(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error: " in proc.stderr

def test_no_command_loads_scipy():
    # scipy costs about 0.6 s of start-up and is a test-only dependency
    script = (
        "import contextlib, io, sys\n"
        "from microcanon import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.run(argv.split()) for argv in sys.argv[1:]]\n"
        "print(codes, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "gas measure --n 5 --m 4 --e 6",
         "gas sample --n 5 --m 3 --e 4 --steps 100 --seed 1", f"ontology classify {MARBLES}",
         "pbr demo", "pbr scan --eps-grid 0,0.01,0.3",
         "pbr demo --method grid --resolution 8 --q-grid 0.5", "pbr cat --a 0.6 --b 0.8"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout == "[0, 0, 0, 0, 0, 0, 0] False\n"
    assert proc.stderr == ""


def loaded_after(*argvs: str) -> list:
    """[exit code, numpy loaded, microcanon.pbr loaded] after `import microcanon`
    (code None) and after each CLI call in turn, all in one fresh process."""
    script = (
        "import contextlib, io, json, sys\n"
        "import microcanon\n"
        "def loaded(code):\n"
        "    return [code, 'numpy' in sys.modules, 'microcanon.pbr' in sys.modules]\n"
        "trace = [loaded(None)]\n"
        "from microcanon import cli\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        trace.append(loaded(cli.run(argv.split())))\n"
        "trace.append([microcanon.pbr.__name__, microcanon.ensemble.__name__])\n"
        "print(json.dumps(trace))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, *argvs],
                          capture_output=True, text=True, timeout=120)
    assert proc.stderr == ""
    return json.loads(proc.stdout)


def test_exact_commands_start_without_numpy():
    # numpy is 70-125 ms of start-up; only the walk's generator and the grid
    # descent call it, so every other command, the Boltzmann fit and the
    # ontology checks included, runs without it
    names = ["microcanon.pbr", "microcanon.ensemble"]
    exact = ["gas enumerate --n 5 --m 4 --e 6", "gas measure --n 5 --m 4 --e 6",
             "gas solve --n 1000 --t 1", "gas fit --n 60 --m 4 --e 75",
             "gas argmax --n 5 --m 4 --e 6", f"ontology validate {MARBLES}",
             f"ontology check {MARBLES}"]
    lp = ["pbr demo --q-grid 0.5", "pbr scan --eps-grid 0,0.01", "pbr cat --a 0.6 --b 0.8"]
    assert loaded_after(*exact, *lp, "gas sample --n 5 --m 3 --e 4 --steps 100 --seed 1") == [
        [None, False, False], *[[0, False, False]] * 7, *[[0, False, True]] * 3,
        [0, True, True], names]
    assert loaded_after("pbr demo --method grid --q-grid 0.5") == [
        [None, False, False], [0, True, True], names]


def run_code(argv: list[str]) -> int:
    """cli.run's exit code, or the code of the SystemExit a usage error raises."""
    try:
        return cli.run(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_gas_output_is_golden(argv, capsys):
    want = GOLDEN[argv]
    assert run_code([a.replace("{repo}", str(ROOT)) for a in argv.split()]) == want["code"]
    out, err = capsys.readouterr()
    assert out == want["stdout"]
    assert err == want["stderr"]


def test_parser_is_built_once(monkeypatch, capsys):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert cli.run(["gas", "enumerate", "--n", "3", "--m", "3", "--e", "2"]) == 0
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()

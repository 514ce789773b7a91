"""The example scripts run at their default arguments."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str) -> list[str]:
    proc = subprocess.run([sys.executable, str(SCRIPTS / name)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout.splitlines()


def test_pbr_tradeoff():
    lines = run_script("pbr_tradeoff.py")
    blank = lines.index("")
    assert lines[0] == "q,min_forbidden_lp,min_forbidden_grid,quadratic_bound"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:blank]]
    assert [q for q, *_ in rows] == [j / 10 for j in range(11)]
    for q, lp, grid, bound in rows:
        assert grid >= lp, q
    assert lines[blank + 1] == "eps,q_max"
    assert len(lines[blank + 2:]) == 5


def test_gas_equilibrium_demo():
    lines = run_script("gas_equilibrium_demo.py")
    assert lines[0] == "n,states,argmax_mass,peak_delta,max_fit_gap"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [3, 9, 30, 90, 300, 1000, 3000, 10000]


def test_cli_sweep_digest_repeats():
    first = run_script("cli_sweep.py")
    assert first == run_script("cli_sweep.py")
    assert first[0].startswith("calls ") and int(first[0].split()[1]) > 600
    assert len(first) == 2 and len(first[1]) == len("sha256 ") + 64


def test_cli_sweep_covers_the_gas_exact_rounds(tmp_path, monkeypatch):
    # the sweep copies the round generator instead of importing bench/
    monkeypatch.syspath_prepend(str(SCRIPTS.parent / "bench"))
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import cli_sweep
    import workloads
    sweep = cli_sweep.calls()
    for seed in range(1, 9):
        ops = workloads.build("gas-exact", seed, str(tmp_path)).ops
        assert sorted(op.argv for op in ops) == sorted(cli_sweep.gas_exact_calls(seed))
        assert all(op.argv in sweep for op in ops)

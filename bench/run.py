"""End-to-end benchmark of the microcanon CLI.

    python3 bench/run.py --workload gas-exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
./src.  Set-up time is measured on fresh interpreters; the operations then
run as a closed loop (one client) in a worker process, and every output is
checked against the benchmark's own oracles.  The last line of stdout is
one JSON object: correct, attempted, failed and the metrics (end-to-end
with --trace 0, per-layer with --trace 1).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time

import workloads
from calibrate import REFERENCE_S, rolling_scale, scale_now, time_kernel
from checks import Checker, gas_spec
from oracles import binning_count
from stats import median, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

STARTUPS = 5           # timed start-ups per run; setup_s is their median
WORKER_DEADLINE = 150  # seconds before a stuck worker is killed

COMMANDS = ("gas enumerate", "gas argmax", "gas measure", "gas fit", "gas solve",
            "gas sample", "pbr demo", "pbr scan", "ontology check",
            "ontology classify", "ontology overlap")

STARTUP_SCRIPT = """\
import contextlib, io, json, sys, time
t0 = time.perf_counter()
import microcanon.cli as cli
t1 = time.perf_counter()
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    rc = cli.run(json.loads(sys.argv[1]))
sys.stdout.write(json.dumps({"import_s": t1 - t0, "rc": rc, "out": buf.getvalue()}))
"""


def child_env(root: str) -> dict:
    """Environment of the start-ups and the worker: ./src, one BLAS thread."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_PINS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def startup(env: dict, argv: list[str], importtime: bool = False) -> tuple[float, dict, str]:
    """Wall time of a fresh interpreter answering one query, its report, stderr."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        "-c", STARTUP_SCRIPT, json.dumps(argv)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"start-up failed ({proc.returncode}): {proc.stderr[-500:]}")
    return wall, json.loads(proc.stdout), proc.stderr


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative import time of scipy modules not imported by other scipy modules.

    `-X importtime` prints each module after its children, indented by
    depth; a reverse pass keeps the chain of enclosing imports.
    """
    total_us = 0
    chain: list[tuple[int, str]] = []
    for line in reversed(importtime_log.splitlines()):
        if not line.startswith("import time:") or "|" not in line[12:]:
            continue
        _, cumulative, name = line[12:].split("|", 2)
        if not cumulative.strip().isdigit():
            continue                       # the column header
        depth = len(name) - len(name.lstrip(" "))
        name = name.strip()
        while chain and chain[-1][0] >= depth:
            chain.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(n == "scipy" or n.startswith("scipy.") for _, n in chain):
            total_us += int(cumulative)
        chain.append((depth, name))
    return total_us / 1e6


def run_worker(root: str, env: dict, cfg: dict) -> tuple[list[dict], dict]:
    """Results of the worker's timed calls, each with the time of the
    reference kernel run right after it, and the worker's final report."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")], cwd=root,
                            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(WORKER_DEADLINE, proc.kill)
    timer.start()
    lines, kernel_s = [], []
    try:
        proc.stdin.write(json.dumps(cfg) + "\n")
        proc.stdin.flush()
        for line in proc.stdout:           # parsed after the worker is done
            lines.append(line)
            if not line.startswith('{"final"'):
                kernel_s.append(time_kernel())
                proc.stdin.write("\n")
                proc.stdin.flush()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    docs = [json.loads(line) for line in lines]
    if proc.returncode != 0 or not docs or not docs[-1].get("final"):
        raise RuntimeError(f"worker ended with code {proc.returncode} before its report")
    for doc, k in zip(docs, kernel_s):
        doc["kernel_s"] = k
    return docs[:-1], docs[-1]


def layer_metrics(trace: dict, n_ops: int, import_s: float, import_scipy: float,
                  walk_tv: list[float]) -> dict:
    """Per-layer metrics from the worker's span aggregates (times as timed)."""
    rounds = trace["rounds"]
    # (command, span) -> calls, total s, self s, work count
    agg = {(c, n): v for c, n, *v in trace["agg"]}

    def total(pred, field):
        return sum(v[field] for (c, n), v in agg.items() if pred(c, n))

    def span(name, field, command=None):
        return total(lambda c, n: n == name and (command is None or c == command), field)

    def ratio(a, b):
        return a / b if b else 0.0

    calls, tot, self_, size = 0, 1, 2, 3
    m = {
        "cli.import_s": import_s,
        "cli.import_scipy_s": import_scipy,
        "cli.parse_s": median(trace["parse_s"]) if trace["parse_s"] else 0.0,
        "cli.self_s": total(lambda c, n: n.startswith("cli."), self_) / n_ops,
        "cli.multiplicity_calls_per_row": ratio(
            span("ensemble.multiplicity", calls, "gas enumerate"),
            span("ensemble.enumerate", size, "gas enumerate")),
    }
    for command in COMMANDS:
        lat = trace["latency"].get(command)
        m[f"cli.{command.replace(' ', '.')}.p50_s"] = median(lat) if lat else 0.0
    peaks = trace["peak_alloc_mb"]
    m.update({
        "ensemble.enumerate.states": span("ensemble.enumerate", size) / rounds,
        "ensemble.enumerate.self_s": span("ensemble.enumerate", self_) / n_ops,
        "ensemble.multiplicity.calls": span("ensemble.multiplicity", calls) / rounds,
        "ensemble.multiplicity.self_s": span("ensemble.multiplicity", self_) / n_ops,
        "ensemble.argmax.self_s": span("ensemble.argmax", self_) / n_ops,
        "ensemble.fit.self_s": span("ensemble.fit", self_) / n_ops,
        "ensemble.walk.steps": span("ensemble.walk", size) / rounds,
        "ensemble.walk.ns_per_step": 1e9 * ratio(span("ensemble.walk", tot),
                                                 span("ensemble.walk", size)),
        "ensemble.walk.peak_alloc_mb": peaks.get("ensemble.walk", 0.0),
        "ensemble.walk.tv_to_exact": sum(walk_tv) / len(walk_tv) if walk_tv else 0.0,
        "ontology.gas_model.self_s": span("ontology.gas_model", self_) / n_ops,
        "ontology.gas_model.peak_alloc_mb": peaks.get("ontology.gas_model", 0.0),
        "ontology.outcome_probs.self_s": span("ontology.outcome_probs", self_) / n_ops,
        "ontology.models.self_s": total(lambda c, n: n.startswith("ontology.models."),
                                        self_) / n_ops,
        "pbr.forbidden.self_s": span("pbr.forbidden", self_) / n_ops,
        "pbr.lp.solves": span("pbr.lp", calls) / rounds,
        "pbr.lp.s_per_solve": ratio(span("pbr.lp", tot), span("pbr.lp", calls)),
        "pbr.grid.calls": span("pbr.grid", calls) / rounds,
        "pbr.grid.self_s": span("pbr.grid", self_) / n_ops,
        "pbr.scan.solves_per_eps": ratio(span("pbr.lp", calls, "pbr scan"),
                                         span("pbr.scan", size)),
        "pbr.scan.self_s": span("pbr.scan", self_) / n_ops,
        "continuum.solve.self_s": span("continuum.solve", self_) / n_ops,
    })
    return m


def load_units(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def measure_setup(env: dict, query: list[str], checker: Checker, failures: list[str]):
    """Scaled wall times and import times of STARTUPS fresh interpreters."""
    meta = workloads.parse_argv(query)
    walls, imports = [], []
    for k in range(STARTUPS + 1):
        scale = scale_now()
        wall, rep, _ = startup(env, query)
        problem = checker.check(meta, query, rep["rc"], rep["out"], "")
        if problem:
            failures.append(f"set-up query {' '.join(query)}: {problem}")
        if k:  # the first start-up writes the bytecode cache
            walls.append(wall * scale)
            imports.append(rep["import_s"] * scale)
    return walls, imports


def special_ops(ops: list, trace: bool) -> tuple[list[int], list[int]]:
    """Warm-up calls (the smallest of each command) and, when tracing, the
    calls whose tracemalloc peak is taken (the longest walk, the largest
    gas measure)."""
    by_command: dict[str, list[int]] = {}
    for i, op in enumerate(ops):
        by_command.setdefault(op.command, []).append(i)
    warm = [min(ix, key=lambda i: int(ops[i].meta.get("steps", 0)))
            for ix in by_command.values()]
    peak = []
    if trace and "gas sample" in by_command:
        peak.append(max(by_command["gas sample"], key=lambda i: int(ops[i].meta["steps"])))
    if trace and "gas measure" in by_command:
        peak.append(max(by_command["gas measure"],
                        key=lambda i: binning_count(*gas_spec(ops[i].meta)[:3])))
    return warm, peak


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="busy time of the timed phase (whole rounds, nearest count)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # the checks' own numpy and scipy calls stay on one thread too
    os.environ.update({var: "1" for var in THREAD_PINS})
    # this process, the start-ups and the worker share one CPU and never run
    # at once, so the reference kernel sees the CPU the program ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "microcanon", "cli.py")):
        print("run.py: src/microcanon not found; run from the root of a microcanon checkout",
              file=sys.stderr)
        return 2
    env = child_env(root)
    units = load_units(root)
    out_dir = os.path.join(HERE, "out")
    model_dir = os.path.join(out_dir, f"models-{args.workload}-{args.seed}-{os.getpid()}")
    trace_file = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    os.makedirs(model_dir, exist_ok=True)
    try:
        rel_models = os.path.relpath(model_dir, root)
        wl = workloads.build(args.workload, args.seed, rel_models)
        for path, doc in wl.models.items():
            if path.startswith(rel_models):
                with open(os.path.join(root, path), "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
        checker = Checker(wl.models)
        failures: list[str] = []
        query = workloads.SETUP_QUERY[args.workload]
        walls, imports = measure_setup(env, query, checker, failures)
        wrong = bool(failures)
        import_scipy = 0.0
        if args.trace:
            scale = scale_now()
            import_scipy = scipy_import_s(startup(env, query, importtime=True)[2]) * scale

        ops = wl.ops
        warm, peak_ops = special_ops(ops, bool(args.trace))
        results, final = run_worker(root, env, {
            "ops": [{"argv": op.argv, "command": op.command} for op in ops],
            "seconds": args.seconds, "trace": bool(args.trace), "warm": warm,
            "peak_ops": peak_ops, "trace_file": trace_file})

        failed = 0
        for r in results:
            op = ops[r["i"]]
            problem = checker.check(op.meta, op.argv, r["rc"], r["out"], r["err"])
            if problem:
                failed += 1
                wrong = wrong or not problem.startswith("exit code")
                failures.append(f"{' '.join(op.argv)}: {problem}")
    finally:
        shutil.rmtree(model_dir, ignore_errors=True)

    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    attempted = len(results)
    timed = [r["s"] for r in results]
    scales = rolling_scale([r["kernel_s"] for r in results])
    scaled = [t * k for t, k in zip(timed, scales)]
    run_scale = median(scales)
    if args.trace:
        metrics = layer_metrics(final["trace"], attempted, median(imports), import_scipy,
                                list(checker.walk_tv.values()))
        for name, value in metrics.items():
            if units[name] in ("s", "s/op", "ns") and not name.startswith("cli.import"):
                metrics[name] = value * run_scale
        print(f"# traced: {attempted / sum(scaled):.4f} ops/s, "
              f"p50 {median(scaled):.6f} s (scaled); spans in {os.path.relpath(trace_file, root)}")
    else:
        metrics = {
            "setup_s": median(walls),
            "ops_per_s": attempted / sum(scaled),
            "latency_p50_s": median(scaled),
            "latency_p90_s": percentile(scaled, 90),
            "peak_rss_mb": final["peak_rss_mb"],
        }
    print(f"# workload {args.workload}, seed {args.seed}: {attempted} ops in "
          f"{final['rounds']} rounds of {len(ops)}, {failed} failed; times scaled by "
          f"{run_scale:.4f} (median) to a {REFERENCE_S * 1e3:g} ms reference kernel; "
          f"as timed: {attempted / sum(timed):.4f} ops/s, p50 {median(timed):.6f} s, "
          f"p90 {percentile(timed, 90):.6f} s")
    for name, value in metrics.items():
        print(f"{args.workload:10s} {name:36s} {value:.6g} {units[name]}")
    doc = {"correct": not wrong, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with open(os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(doc, rounds=final["rounds"], timed_s=timed, scale=scales), fh)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The one client of a benchmark run: calls microcanon.cli.run in-process.

Reads its configuration as one JSON line on stdin, replays whole rounds of
the operation list for about the requested number of seconds, and sends
one JSON line per operation to stdout: exit code, captured output and wall
time.  After each line it waits for an empty line on stdin, while the
parent times its reference kernel.  The last line carries the process's
peak resident memory and, in a traced run, the span aggregates.  Run by run.py; not meant to be started by
hand.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _call(run, argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = run(argv)
        except SystemExit as exc:          # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:                  # counted as a failed operation
            rc = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def main() -> int:
    channel = sys.stdout
    cfg = json.loads(sys.stdin.readline())
    ops, seconds = cfg["ops"], cfg["seconds"]

    from microcanon import cli, continuum, ensemble, ontology, pbr
    modules = {"cli": cli, "continuum": continuum, "ensemble": ensemble,
               "ontology": ontology, "pbr": pbr}

    tracer = None
    if cfg["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, modules)

    def run_op(i: int):
        if tracer is None:
            return _call(cli.run, ops[i]["argv"])
        tracer.begin_op(i, ops[i]["command"])
        try:
            return _call(cli.run, ops[i]["argv"])
        finally:
            tracer.end_op()

    # one call of each command first, so lazy imports and solver set-up
    # land before the timed rounds
    for i in cfg["warm"]:
        run_op(i)
    if tracer is not None:
        tracer.reset()

    busy, rounds, target = 0.0, 0, 1
    while rounds < target:
        for i in range(len(ops)):
            rc, out, err, elapsed = run_op(i)
            busy += elapsed
            channel.write(json.dumps({"i": i, "rc": rc, "out": out, "err": err,
                                      "s": elapsed}) + "\n")
            channel.flush()
            sys.stdin.readline()   # the parent times its reference kernel meanwhile
        rounds += 1
        if rounds == 1:
            target = max(1, round(seconds / busy))

    final = {"final": True, "rounds": rounds,
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        final["trace"] = tracer.summary(rounds)   # before the calls below
        if cfg["peak_ops"]:
            import tracemalloc
            saved = tracing.install_peaks(tracer, modules, {
                "ensemble.walk": ("ensemble", "sample_microstates"),
                "ontology.gas_model": ("ontology", "gas_model"),
            })
            tracer.op, tracer.command = -1, "peak"
            tracemalloc.start()
            for i in cfg["peak_ops"]:
                _call(cli.run, ops[i]["argv"])
            tracemalloc.stop()
            tracing.restore(saved)
        final["trace"]["peak_alloc_mb"] = tracer.peak_alloc
        with open(cfg["trace_file"], "w", encoding="utf-8") as fh:
            json.dump({"columns": ["op", "span", "parent", "name", "start_s", "end_s"],
                       "spans": tracer.raw, "dropped": tracer.dropped}, fh)
    channel.write(json.dumps(final) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

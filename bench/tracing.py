"""Spans around the program's layers, installed from outside the program.

install() replaces public functions on the microcanon modules with timing
wrappers.  Callers inside the package look these names up on the module at
call time, so nested calls (most_probable_binnings -> enumerate_binnings,
min_forbidden_probability -> minimize_forbidden -> _minimax_lp) are
caught too.  Spans stay in memory: aggregates for every span, raw records
up to a cap, written out when the run ends.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict

# (module, attribute, span name).  The span name's first word is its layer.
SPANS = [
    ("ensemble", "enumerate_binnings", "ensemble.enumerate"),
    ("ensemble", "multiplicity", "ensemble.multiplicity"),
    ("ensemble", "entropy", "ensemble.entropy"),
    ("ensemble", "most_probable_binnings", "ensemble.argmax"),
    ("ensemble", "boltzmann_fit", "ensemble.fit"),
    ("ensemble", "sample_microstates", "ensemble.walk"),
    ("ontology", "gas_model", "ontology.gas_model"),
    ("ontology.GasOntModel", "outcome_probabilities_exact", "ontology.outcome_probs"),
    ("ontology", "load_model", "ontology.models.load"),
    ("ontology", "validate", "ontology.models.validate"),
    ("ontology", "born_deviation", "ontology.models.born"),
    ("ontology", "overlap_classify", "ontology.models.overlap"),
    ("ontology", "information_class", "ontology.models.classify"),
    ("pbr", "min_forbidden_probability", "pbr.forbidden"),
    ("pbr", "_minimax_lp", "pbr.lp"),
    ("pbr", "_minimax_grid", "pbr.grid"),
    ("pbr", "epsilon_overlap_tradeoff", "pbr.scan"),
    ("continuum", "solve_total_energy", "continuum.solve"),
]


def _size(name: str, args, kwargs, result) -> int:
    """Work count a span carries: states listed, walk steps, eps values."""
    if name == "ensemble.enumerate":
        return len(result)
    if name == "ensemble.walk":
        return int(kwargs.get("steps", args[1] if len(args) > 1 else 0))
    if name == "pbr.scan":
        return len(args[0]) if args else len(kwargs["eps_grid"])
    return 0


SPAN_CAP = 100_000   # raw span records kept; later spans only enter the aggregates


class Tracer:
    """Span stack and aggregates for one worker process."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.stack: list[list] = []
        self.raw: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.op = -1
        self.command = ""
        # (command, span name) -> [calls, total s, self s, work count]
        self.agg: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.parse_s: list[float] = []
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.peak_alloc: dict[str, float] = {}

    def _push(self, name: str) -> list:
        frame = [self.next_id, name, time.perf_counter(), 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _pop(self, frame: list, size: int = 0) -> float:
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame[2]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        a = self.agg[(self.command, frame[1])]
        a[0] += 1
        a[1] += dur
        a[2] += dur - frame[3]
        a[3] += size
        if len(self.raw) < SPAN_CAP:
            self.raw.append((self.op, frame[0], parent[0] if parent else -1, frame[1],
                             frame[2], end))
        else:
            self.dropped += 1
        return dur

    def begin_op(self, index: int, command: str):
        self.op, self.command = index, command
        self._push("cli.run")

    def end_op(self) -> float:
        dur = self._pop(self.stack[0])
        self.latency[self.command].append(dur)
        return dur

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            frame = self._push(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._pop(frame, _size(name, args, kwargs, result) if result is not None else 0)
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_command(self, fn):
        """The cli.cmd_* handler: its start marks the end of argument parsing."""
        def wrapper(args):
            if self.stack:
                self.parse_s.append(time.perf_counter() - self.stack[0][2])
            frame = self._push("cli.cmd")
            try:
                return fn(args)
            finally:
                self._pop(frame)
        return wrapper

    def peak_wrap(self, name: str, fn):
        """Largest tracemalloc peak inside one call of fn, in MB."""
        def wrapper(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
                self.peak_alloc[name] = max(self.peak_alloc.get(name, 0.0), peak)
        return wrapper

    def summary(self, rounds: int) -> dict:
        return {
            "rounds": rounds,
            "agg": [[c, n, *v] for (c, n), v in sorted(self.agg.items())],
            "parse_s": self.parse_s,
            "latency": dict(self.latency),
            "spans_kept": len(self.raw),
            "spans_dropped": self.dropped,
        }


def _owner(modules: dict, path: str):
    head, _, cls = path.partition(".")
    obj = modules[head]
    return getattr(obj, cls) if cls else obj


def install(tracer: Tracer, modules: dict):
    """Wrap every span function and cli command for the rest of the process."""
    for path, attr, name in SPANS:
        owner = _owner(modules, path)
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    cli = modules["cli"]
    for attr in dir(cli):
        if attr.startswith("cmd_"):
            setattr(cli, attr, tracer.wrap_command(getattr(cli, attr)))


def install_peaks(tracer: Tracer, modules: dict, names: dict[str, tuple[str, str]]) -> list:
    """Wrap the named functions with tracemalloc peaks; returns what to restore."""
    saved = []
    for name, (path, attr) in names.items():
        owner = _owner(modules, path)
        fn = getattr(owner, attr)
        saved.append((owner, attr, fn))
        setattr(owner, attr, tracer.peak_wrap(name, fn))
    return saved


def restore(saved: list):
    for owner, attr, fn in reversed(saved):
        setattr(owner, attr, fn)

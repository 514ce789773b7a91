"""Seeded operation lists, one round per workload.

A round is a fixed list of CLI calls; a run replays it whole, so every run
of one seed does the same work in the same proportions.  The seed moves
each call's inputs inside a narrow stratum (particle count, energy, walk
length, overlap grid), so different seeds cost about the same while never
repeating inputs.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

from oracles import outcome_law

WORKLOADS = ("gas-exact", "walk", "nogo")
MARBLES = os.path.join("fixtures", "marbles.json")

# Small query answered by each start-up that setup_s times.
SETUP_QUERY = {
    "gas-exact": ["gas", "measure", "--n", "6", "--m", "3", "--e", "5"],
    "walk": ["gas", "sample", "--n", "6", "--m", "3", "--e", "5",
             "--steps", "200", "--seed", "7"],
    "nogo": ["pbr", "demo", "--q-grid", "0.5"],
}


@dataclass
class Op:
    """One CLI call and what its checker needs to know about it."""

    argv: list[str]
    meta: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return f"{self.argv[0]} {self.argv[1]}"


@dataclass
class Workload:
    ops: list[Op]
    models: dict[str, dict]       # path -> model document the benchmark wrote


def parse_argv(argv: list[str]) -> dict:
    """Flags of a CLI call as a dict (the checkers read inputs from here)."""
    out: dict = {"command": f"{argv[0]} {argv[1]}", "format": None}
    rest = argv[2:]
    i = 0
    while i < len(rest):
        tok = rest[i]
        if tok == "--pair":
            out["pair"] = rest[i + 1:i + 3]
            i += 3
        elif tok.startswith("--"):
            out[tok[2:].replace("-", "_")] = rest[i + 1]
            i += 2
        else:
            out["model"] = tok
            i += 1
    return out


def _gas_argv(command: str, n: int, m: int, excess: int, eps0_units: int,
              delta: float, fmt: str) -> list[str]:
    argv = ["gas", command, "--n", str(n), "--m", str(m),
            "--e", str(excess + n * eps0_units)]
    if eps0_units:
        argv += ["--eps0-units", str(eps0_units)]
    if delta != 1.0:
        argv += ["--delta", repr(delta)]
    return argv + ["--format", fmt]


def _inside_band(n: int, m: int, frac: float) -> int:
    """Excess energy at a fraction of the band, strictly inside it."""
    return min(max(round(frac * n * (m - 1)), 1), n * (m - 1) - 1)


def gas_exact(rng: random.Random) -> list[Op]:
    """Slots of fixed (command, m, n, share of the energy band, format).

    The seed moves each slot's energy by up to one unit either way and picks
    the ground offset and lattice step, which change the answers but barely
    the work, so every seed costs about the same.
    """
    slots = [
        ("enumerate", 5, 24, 0.45), ("enumerate", 5, 32, 0.47), ("enumerate", 5, 40, 0.44),
        ("enumerate", 5, 44, 0.48), ("enumerate", 6, 24, 0.46), ("enumerate", 6, 28, 0.44),
        ("argmax", 5, 26, 0.46), ("argmax", 5, 34, 0.44), ("argmax", 5, 38, 0.48),
        ("argmax", 5, 44, 0.45), ("argmax", 6, 25, 0.47), ("argmax", 6, 29, 0.45),
        ("measure", 5, 26, 0.44), ("measure", 5, 32, 0.48), ("measure", 5, 38, 0.45),
        ("measure", 6, 22, 0.46), ("measure", 6, 25, 0.44),
        ("fit", 5, 24, 0.3), ("fit", 5, 36, 0.45), ("fit", 6, 30, 0.6), ("fit", 6, 44, 0.4),
    ]
    ops = []
    for j, (command, m, n, share) in enumerate(slots):
        excess = _inside_band(n, m, share) + rng.randint(-1, 1)
        ops.append(Op(_gas_argv(command, n, m, excess, rng.choice((0, 1, 2)),
                                rng.choice((1.0, 0.5, 2.0)), "json" if j % 2 else "csv")))
    for j in range(3):
        n = round(10 ** rng.uniform(1.7, 3.7))
        argv = ["gas", "solve", "--n", str(n), "--t", repr(round(rng.uniform(0.5, 3.0), 4)),
                "--eps0", repr(round(rng.uniform(0.1, 5.0), 4))]
        if j == 2:
            argv += ["--k", "1.380649"]
        ops.append(Op(argv + ["--format", "json" if j % 2 else "csv"]))
    return ops


def walk(rng: random.Random) -> list[Op]:
    """30 short walks of fixed size and length within 2%, one of 1e6 steps.

    Lengths step geometrically from 5e3 to 4e4 over the slots; the seed
    moves each length by up to 2%, the energy by up to one unit and picks
    the walk's own seed.
    """
    ops = []
    for j in range(30):
        steps = round(5000 * 8 ** ((j + 0.5) / 30) * rng.uniform(0.98, 1.02))
        m, n = 3 + j % 3, 6 + j % 7
        excess = _inside_band(n, m, 0.5) + rng.randint(-1, 1)
        argv = _gas_argv("sample", n, m, excess, 0, 1.0, "csv" if j % 4 == 3 else "json")
        ops.append(Op(argv + ["--steps", str(steps), "--seed", str(rng.randrange(2 ** 31))]))
    excess = _inside_band(18, 5, 0.5) + rng.randint(-1, 1)
    argv = _gas_argv("sample", 18, 5, excess, 0, 1.0, "json")
    ops.append(Op(argv + ["--steps", "1000000", "--seed", str(rng.randrange(2 ** 31))]))
    # the same call twice in one round: its two outputs must be identical
    ops.append(Op(list(ops[rng.randrange(30)].argv)))
    return ops


def _model(rng: random.Random, n_lam: int, ontic: bool) -> dict:
    """Finite model whose Born targets are its own outcome law.

    The ontic states fall into 8 blocks.  Preparation p lives on block p
    alone when `ontic`, otherwise on blocks p and p+1, and preparation 5
    then shares preparation 4's support with other weights, so the
    overlap classes none, partial and complete all occur.
    """
    labels = [f"l{i}" for i in range(n_lam)]
    block = [i * 8 // n_lam for i in range(n_lam)]
    preps = []
    for p in range(6):
        own = {p} if ontic else {p, p + 1}
        if not ontic and p == 5:
            own = {4, 5}
        w = [rng.uniform(0.05, 1.0) if block[i] in own else 0.0 for i in range(n_lam)]
        s = sum(w)
        preps.append({"name": f"P{p}", "mu": [x / s for x in w]})
    meas = []
    for k, n_out in enumerate((2, 3, 4, 5)):
        cols = []
        for _ in range(n_lam):
            w = [rng.uniform(0.05, 1.0) for _ in range(n_out)]
            s = sum(w)
            cols.append([x / s for x in w])
        meas.append({"name": f"M{k}", "outcomes": [f"o{j}" for j in range(n_out)],
                     "xi": [[col[j] for col in cols] for j in range(n_out)]})
    targets = {p["name"]: {m["name"]: outcome_law(p["mu"], m["xi"]) for m in meas}
               for p in preps}
    return {"lambda": labels, "preparations": preps, "measurements": meas,
            "born_targets": targets}


def nogo(rng: random.Random, model_dir: str) -> tuple[list[Op], dict[str, dict]]:
    ops = []
    for j in range(12):
        qs = [round(rng.random(), 6) for _ in range(4)]
        if j == 0:
            qs = [0.0] + qs + [1.0]
        ops.append(Op(["pbr", "demo", "--q-grid", ",".join(map(repr, qs)),
                       "--format", "json" if j % 2 else "csv"]))
    for j, res in enumerate((6, 8, 10, 12, 14, 16)):
        ops.append(Op(["pbr", "demo", "--method", "grid", "--resolution", str(res),
                       "--q-grid", repr(round(rng.uniform(0.1, 0.9), 6)),
                       "--format", "json" if j % 2 else "csv"]))
    for j in range(3):
        eps = sorted(round(rng.uniform(0.005, 0.24), 6) for _ in range(2))
        ops.append(Op(["pbr", "scan", "--eps-grid", ",".join(map(repr, eps)),
                       "--format", "json" if j % 2 else "csv"]))
    models = {}
    for k, (size, ontic) in enumerate(((200, False), (300, True), (400, False))):
        path = os.path.join(model_dir, f"model-{k}.json")
        models[path] = _model(rng, size + rng.randint(-10, 10), ontic)
        pairs = [("P0", "P1"), ("P4", "P5"), ("P0", "P3")]
        ops.append(Op(["ontology", "check", path, "--format", "json"]))
        ops.append(Op(["ontology", "classify", path, "--format", "csv" if k % 2 else "json"]))
        for a, b in rng.sample(pairs, 2):
            ops.append(Op(["ontology", "overlap", path, "--pair", a, b,
                           "--format", "json" if k % 2 else "csv"]))
    with open(MARBLES, encoding="utf-8") as fh:
        models[MARBLES] = json.load(fh)
    names = [p["name"] for p in models[MARBLES]["preparations"]]
    ops.append(Op(["ontology", "check", MARBLES, "--format", "csv"]))
    ops.append(Op(["ontology", "classify", MARBLES]))
    ops.append(Op(["ontology", "overlap", MARBLES, "--pair", *rng.sample(names, 2)]))
    return ops, models


def build(name: str, seed: int, model_dir: str) -> Workload:
    """The seeded round of workload `name`; model files go to model_dir."""
    rng = random.Random(f"{name}:{seed}")
    models: dict[str, dict] = {}
    if name == "gas-exact":
        ops = gas_exact(rng)
    elif name == "walk":
        ops = walk(rng)
    elif name == "nogo":
        ops, models = nogo(rng, model_dir)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(ops)
    for op in ops:
        op.meta.update(parse_argv(op.argv))
    return Workload(ops=ops, models=models)

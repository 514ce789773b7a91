"""Checks of each CLI output against the oracles.

Every output is parsed and compared with values the benchmark computes
itself (see oracles.py).  A call repeated in a run must print the same
text as the first, oracle-checked, time it ran: the program promises
deterministic output, so identical text carries the same verdict and only
differing text is checked again.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import oracles

REL = 1e-12          # floats the program derives from exact rationals
FIT_TOL = 1e-9       # beta and the fit's constraints
SOLVE_TOL = 1e-9     # quadrature self-consistency of the continuum root
NO_GO_TOL = 1e-9     # LP value against q^2/4
SCAN_TOL = 2e-9      # bisection tolerance 1e-9 plus the same again as slack
BORN_TOL = 1e-12     # a model's deviation from its own outcome law


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _close(actual: float, expected: float, rel: float, what: str, abs_tol: float = 0.0):
    _require(abs(actual - expected) <= max(rel * abs(expected), abs_tol),
             f"{what}: got {actual!r}, expected {expected!r}")


def _table(text: str, fmt: str) -> list:
    """Rows of a CSV table as dicts, or the parsed JSON document."""
    if fmt == "json":
        return json.loads(text)
    return list(csv.DictReader(io.StringIO(text)))


def _grid(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def gas_spec(meta: dict) -> tuple[int, int, int, int, float]:
    """(n, m, excess, eps0_units, delta) of a gas call's flags."""
    n, m = int(meta["n"]), int(meta["m"])
    eps0 = int(meta.get("eps0_units", 0))
    return n, m, int(meta["e"]) - n * eps0, eps0, float(meta.get("delta", 1.0))


class Checker:
    """Checks outputs of one run; caches oracle values per distinct call."""

    def __init__(self, models: dict[str, dict] | None = None):
        self.models = models or {}
        self.verified: dict[tuple, str] = {}
        self._cache: dict[tuple, object] = {}
        self.walk_tv: dict[tuple, float] = {}

    def _oracle(self, key: tuple, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def check(self, meta: dict, argv: list[str], rc: int, out: str, err: str) -> str | None:
        """None when the output is right, else why it is not.

        A message starting with "exit code" means the call did not finish;
        any other message means it printed a wrong answer.
        """
        if rc != 0:
            return f"exit code {rc}: {err.strip()[-300:]}"
        key = tuple(argv)
        seen = self.verified.get(key)
        if seen is not None and seen == out:
            return None
        if seen is not None and meta["command"] == "gas sample":
            return "repeated walk with the same seed printed different counts"
        fmt = meta["format"] or ("json" if meta["command"] in {
            "gas sample", "ontology check", "ontology classify"} else "csv")
        try:
            getattr(self, "_" + meta["command"].replace(" ", "_"))(meta, fmt, out)
        except CheckFailed as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unparsable output ({type(exc).__name__}: {exc})"
        self.verified[key] = out
        return None

    # --- gas ---------------------------------------------------------------

    def _binning_rows(self, meta: dict, fmt: str, out: str, expected: list, total: int):
        """Rows of binnings; mu is omega over `total`."""
        n, m, e, _, _ = gas_spec(meta)
        rows = _table(out, fmt)
        got = [tuple(r["binning"] if fmt == "json" else json.loads(r["binning"])) for r in rows]
        _require(len(got) == len(expected), f"{len(got)} binnings listed, expected {len(expected)}")
        for b, want in zip(got, expected):
            _require(want is None or b == want, f"binning {b} listed where {want} belongs")
            _require(oracles.is_binning(b, n, m, e),
                     f"{b} is not a binning of n={n}, m={m}, excess={e}")
        _require(all(a < b for a, b in zip(got, got[1:])),
                 "binnings not distinct in lexicographic order")
        for b, r in zip(got, rows):
            om = oracles.omega(tuple(b))
            _require(int(r["omega"]) == om, f"omega of {b}: got {r['omega']}, expected {om}")
            s = math.log(om)
            _close(float(r["entropy"]), s, REL, f"entropy of {b}", 1e-12)
            _close(float(r["mu"]), float(Fraction(om, total)), REL, f"mu of {b}")
            if fmt == "json":
                _close(float(r["log_omega"]), s, REL, f"log_omega of {b}", 1e-12)

    def _gas_enumerate(self, meta, fmt, out):
        n, m, e, _, _ = gas_spec(meta)
        count = self._oracle(("count", n, m, e), lambda: oracles.binning_count(n, m, e))
        total = self._oracle(("total", n, m, e), lambda: oracles.total_microstates(n, m, e))
        self._binning_rows(meta, fmt, out, [None] * count, total)

    def _gas_argmax(self, meta, fmt, out):
        n, m, e, _, _ = gas_spec(meta)
        best = self._oracle(("argmax", n, m, e), lambda: oracles.argmax_binnings(n, m, e))
        # the CLI normalises mu over the listed maximisers, not over all
        # binnings, so a unique maximiser prints mu = 1
        self._binning_rows(meta, fmt, out, best, sum(oracles.omega(b) for b in best))

    def _gas_measure(self, meta, fmt, out):
        n, m, e, eps0, delta = gas_spec(meta)
        law = self._oracle(("law", n, m, e), lambda: oracles.tagged_law(n, m, e))
        rows = _table(out, fmt)
        _require(len(rows) == m, f"{len(rows)} outcomes, expected {m}")
        for i, r in enumerate(rows):
            _close(float(r["eps"]), (eps0 + i) * delta, REL, f"eps of bin {i}")
            _close(float(r["p"]), float(law[i]), REL, f"P(bin {i})", 1e-300)

    def _gas_fit(self, meta, fmt, out):
        n, m, e, eps0, delta = gas_spec(meta)
        beta = self._oracle(("beta", n, m, e, delta), lambda: oracles.fit_beta(n, m, e, delta))
        if fmt == "json":
            doc = json.loads(out)
            alpha, got_beta, pred = doc["alpha"], doc["beta"], doc["predicted"]
        else:
            rows = _table(out, fmt)
            alpha, got_beta = float(rows[0]["alpha"]), float(rows[0]["beta"])
            pred = [float(r["predicted"]) for r in rows]
        _require(len(pred) == m, f"{len(pred)} fitted bins, expected {m}")
        _require(abs(got_beta - beta) * delta <= FIT_TOL,
                 f"beta: got {got_beta!r}, root solve gives {beta!r}")
        eps = [(eps0 + i) * delta for i in range(m)]
        _close(math.fsum(pred), n, FIT_TOL, "fitted particle count")
        _close(math.fsum(p * x for p, x in zip(pred, eps)), (e + n * eps0) * delta,
               FIT_TOL, "fitted total energy")
        for i, (p, x) in enumerate(zip(pred, eps)):
            _close(p, math.exp(-alpha - got_beta * x), FIT_TOL, f"exp(-alpha - beta eps) at bin {i}")

    def _gas_solve(self, meta, fmt, out):
        n, t = float(meta["n"]), float(meta["k"] if "k" in meta else 1.0) * float(meta["t"])
        eps0 = float(meta.get("eps0", 0.0))
        e1 = json.loads(out)["e1"] if fmt == "json" else float(_table(out, fmt)[0]["e1"])
        check_continuum_root(n, t, eps0, e1)

    def _gas_sample(self, meta, fmt, out):
        n, m, e, _, _ = gas_spec(meta)
        steps = int(meta["steps"])
        if fmt == "json":
            counts = {tuple(json.loads(k)): v for k, v in json.loads(out).items()}
        else:
            counts = {tuple(json.loads(r["binning"])): int(r["count"]) for r in _table(out, fmt)}
        law = self._oracle(("walklaw", n, m, e), lambda: oracles.binning_law(n, m, e))
        self.walk_tv[(n, m, e, steps, meta["seed"])] = check_walk(counts, law, n, steps)

    # --- no-go -------------------------------------------------------------

    def _pbr_demo(self, meta, fmt, out):
        qs = _grid(meta["q_grid"])
        rows = _table(out, fmt)
        _require(len(rows) == len(qs), f"{len(rows)} rows for {len(qs)} q values")
        grid = meta.get("method") == "grid"
        res = int(meta.get("resolution", 50))
        for q, r in zip(qs, rows):
            _require(float(r["q"]) == q, f"row for q={r['q']} where q={q!r} belongs")
            v, want = float(r["min_forbidden_prob"]), oracles.no_go_value(q)
            if grid:
                _require(want - 1e-12 <= v <= want + 1.0 / res + 1e-12,
                         f"grid value {v!r} at q={q} outside [q^2/4, q^2/4 + 1/{res}]")
            else:
                _require(abs(v - want) <= NO_GO_TOL, f"LP value {v!r} at q={q}, q^2/4 = {want!r}")

    def _pbr_scan(self, meta, fmt, out):
        eps = _grid(meta["eps_grid"])
        rows = _table(out, fmt)
        _require(len(rows) == len(eps), f"{len(rows)} rows for {len(eps)} eps values")
        for x, r in zip(eps, rows):
            _require(float(r["eps"]) == x, f"row for eps={r['eps']} where eps={x!r} belongs")
            q, want = float(r["q_max"]), oracles.tradeoff_q(x)
            _require(abs(q - want) <= SCAN_TOL, f"q_max {q!r} at eps={x}, min(1, 2 sqrt eps) = {want!r}")

    # --- ontology ----------------------------------------------------------

    def _ontology_check(self, meta, fmt, out):
        doc = self.models[meta["model"]]
        meas = {m["name"]: m for m in doc["measurements"]}
        mus = {p["name"]: p["mu"] for p in doc["preparations"]}
        want = []
        for pname, per in doc["born_targets"].items():
            for mname, targets in per.items():
                law = oracles.outcome_law(mus[pname], meas[mname]["xi"])
                for o, tgt, p in zip(meas[mname]["outcomes"], targets, law):
                    want.append((pname, mname, o, tgt, p))
        if fmt == "json":
            parsed = json.loads(out)
            table = parsed["table"]
        else:
            table = _table(out, fmt)
        _require(len(table) == len(want), f"{len(table)} table rows, expected {len(want)}")
        devs = []
        for row, (pname, mname, o, tgt, p) in zip(table, want):
            _require((row["preparation"], row["measurement"], row["outcome"]) == (pname, mname, o),
                     f"row {row['preparation']}/{row['measurement']}/{row['outcome']} "
                     f"where {pname}/{mname}/{o} belongs")
            _require(float(row["target"]) == float(tgt), f"target of {pname}/{mname}/{o}")
            _close(float(row["actual"]), p, 0.0, f"P({o} | {pname}, {mname})", BORN_TOL)
            dev = float(row["deviation"])
            _require(dev <= BORN_TOL and dev == abs(float(row["target"]) - float(row["actual"])),
                     f"deviation {dev!r} of {pname}/{mname}/{o}")
            devs.append(dev)
        if fmt == "json":
            _require(parsed["max_deviation"] == max(devs, default=0.0), "max_deviation")

    def _ontology_classify(self, meta, fmt, out):
        doc = self.models[meta["model"]]
        owners = {lab: [p["name"] for p in doc["preparations"] if p["mu"][i] > 0]
                  for i, lab in enumerate(doc["lambda"])}
        verdict = ("minimal (psi-epistemic)" if any(len(v) > 1 for v in owners.values())
                   else "non-minimal (psi-ontic)")
        if fmt == "json":
            parsed = json.loads(out)
            got, got_verdicts = parsed["per_lambda"], {parsed["verdict"]}
        else:
            rows = _table(out, fmt)
            got = {r["lambda"]: r["preparations"].split() for r in rows}
            got_verdicts = {r["verdict"] for r in rows}
        _require(got == owners, "per-state owners differ from the supports of mu")
        _require(got_verdicts == {verdict}, f"verdict {sorted(got_verdicts)}, expected {verdict!r}")

    def _ontology_overlap(self, meta, fmt, out):
        doc = self.models[meta["model"]]
        mus = {p["name"]: p["mu"] for p in doc["preparations"]}
        a, b = (mus[x] for x in meta["pair"])
        s1 = {i for i, x in enumerate(a) if x > 0}
        s2 = {i for i, x in enumerate(b) if x > 0}
        cls = "none" if not s1 & s2 else ("complete" if s1 == s2 else "partial")
        common = [doc["lambda"][i] for i in sorted(s1 & s2)]
        mass = math.fsum(min(x, y) for x, y in zip(a, b))
        if fmt == "json":
            got = json.loads(out)
            got_cls, got_mass, got_common = got["class"], got["omega"], got["common_support"]
        else:
            row = _table(out, fmt)[0]
            got_cls, got_mass = row["class"], float(row["omega"])
            got_common = row["common_support"].split()
        _require(got_cls == cls, f"overlap class {got_cls!r}, expected {cls!r}")
        _require(got_common == common, "common support differs")
        _close(float(got_mass), mass, 0.0, "overlap mass", BORN_TOL)


def check_continuum_root(n: float, t: float, eps0: float, e1: float):
    """e1 must be carried by rho itself: quadrature of rho and eps*rho."""
    _require(e1 > eps0, f"e1={e1!r} not above eps0={eps0!r}")
    mass, energy = oracles.continuum_moments(n, t, eps0, e1)
    _close(mass, n, SOLVE_TOL, "particles carried by rho")
    _close(energy, e1, SOLVE_TOL, "energy carried by rho")


def walk_tv_bound(n_binnings: int, n_particles: int, steps: int) -> float:
    """Bound on the walk's total-variation distance to the exact law.

    Independent draws give E[TV] <= sqrt(K / steps) / 2 over K binnings.
    A step changes two particles, so the walk needs about n steps for an
    independent draw; the effective sample count is steps / n.  Three times
    that expectation bounds the fluctuation as well.
    """
    return 1.5 * math.sqrt(n_binnings * n_particles / steps)


def check_walk(counts: dict, law: dict, n: int, steps: int) -> float:
    """Visit counts of a walk against the exact binning law; returns the TV."""
    _require(sum(counts.values()) == steps, f"counts sum to {sum(counts.values())}, not {steps}")
    stray = [k for k in counts if k not in law]
    _require(not stray, f"visited {stray[:3]}, which are not binnings of the spec")
    _require(all(v > 0 for v in counts.values()), "a listed binning has no visits")
    tv = oracles.total_variation({k: Fraction(v, steps) for k, v in counts.items()}, law)
    bound = walk_tv_bound(len(law), n, steps)
    _require(tv <= bound, f"TV to the exact law {tv:.4g} above its bound {bound:.4g}")
    return tv

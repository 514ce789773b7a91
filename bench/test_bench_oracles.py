"""The benchmark's oracles against brute force, and the checks against
planted wrong answers.  Run with: python -m pytest bench -q
"""

from __future__ import annotations

import itertools
import json
import math
import random
import statistics
from fractions import Fraction

import pytest

import calibrate
import checks
import oracles
import workloads
from run import scipy_import_s
from stats import median, percentile

TINY = [(n, m, e) for n in range(1, 6) for m in range(1, 5) for e in range(0, n * (m - 1) + 1)]


def microstates(n, m, e):
    return [lv for lv in itertools.product(range(m), repeat=n) if sum(lv) == e]


def occupancy(levels, m):
    return tuple(levels.count(i) for i in range(m))


def test_generating_function_matches_microstate_enumeration():
    for n, m, e in TINY:
        states = microstates(n, m, e)
        assert oracles.total_microstates(n, m, e) == len(states), (n, m, e)
        law = oracles.tagged_law(n, m, e)
        for i in range(m):
            assert law[i] == Fraction(sum(1 for s in states if s[0] == i), len(states)), (n, m, e)


def test_binning_count_and_laws_match_brute_force():
    for n, m, e in TINY:
        states = microstates(n, m, e)
        occs = {occupancy(s, m) for s in states}
        assert oracles.binning_count(n, m, e) == len(occs), (n, m, e)
        assert sorted(oracles.all_binnings(n, m, e)) == sorted(occs), (n, m, e)
        law = oracles.binning_law(n, m, e)
        for b in occs:
            assert oracles.omega(b) == sum(1 for s in states if occupancy(s, m) == b), b
            assert law[b] == Fraction(oracles.omega(b), len(states)), b
            assert oracles.is_binning(b, n, m, e), b
        best = max(oracles.omega(b) for b in occs)
        assert oracles.argmax_binnings(n, m, e) == sorted(
            b for b in occs if oracles.omega(b) == best), (n, m, e)


def test_counts_outside_the_band_are_zero():
    assert oracles.binning_count(3, 3, 7) == 0
    assert oracles.total_microstates(3, 3, 7) == 0
    assert oracles.binning_count(4, 1, 0) == 1


def test_argmax_keeps_exact_ties():
    # 3 particles, 3 bins, excess 2: [1,2,0] and [2,0,1] both have omega 3
    assert oracles.argmax_binnings(3, 3, 2) == [(1, 2, 0), (2, 0, 1)]


def fit_output(n, m, e, beta, delta=1.0):
    eps = [i * delta for i in range(m)]
    z = math.fsum(math.exp(-beta * x) for x in eps)
    alpha = math.log(z) - math.log(n)
    pred = [n * math.exp(-beta * x) / z for x in eps]
    return json.dumps({"alpha": alpha, "beta": beta, "predicted": pred})


def meta_of(argv):
    return workloads.parse_argv(argv)


def test_fit_beta_meets_the_energy_constraint_and_rejects_a_planted_beta():
    n, m, e = 30, 5, 45
    beta = oracles.fit_beta(n, m, e, 1.0)
    pred = json.loads(fit_output(n, m, e, beta))["predicted"]
    assert math.fsum(p * i for i, p in enumerate(pred)) == pytest.approx(e, rel=1e-12)
    argv = ["gas", "fit", "--n", "30", "--m", "5", "--e", "45", "--format", "json"]
    checker = checks.Checker()
    assert checker.check(meta_of(argv), argv, 0, fit_output(n, m, e, beta), "") is None
    bad = checks.Checker().check(meta_of(argv), argv, 0, fit_output(n, m, e, beta * (1 + 1e-6)), "")
    assert bad is not None and "beta" in bad


def test_continuum_check_accepts_the_root_and_rejects_n_k_t_plus_eps0():
    from scipy.optimize import brentq

    n, t, eps0 = 1000.0, 1.0, 5.0

    def residual(e1):  # E1 minus the energy rho carries, closed form
        x = (e1 - eps0) / t
        tail = n * (e1 - eps0) / math.expm1(x) if x < 700 else 0.0
        return e1 - (n * t + n * eps0 - tail)

    root = brentq(residual, eps0 + 1.0, 10 * n * (t + eps0), xtol=1e-12)
    checks.check_continuum_root(n, t, eps0, root)
    with pytest.raises(checks.CheckFailed):
        checks.check_continuum_root(n, t, eps0, n * t + eps0)


def test_no_go_checks_reject_planted_values():
    lp = ["pbr", "demo", "--q-grid", "0.0,0.5,1.0", "--format", "json"]

    def demo(vals):
        return json.dumps([{"q": q, "min_forbidden_prob": v} for q, v in zip((0.0, 0.5, 1.0), vals)])

    assert checks.Checker().check(meta_of(lp), lp, 0, demo([0.0, 0.0625, 0.25]), "") is None
    assert checks.Checker().check(meta_of(lp), lp, 0, demo([0.0, 0.0625 + 1e-6, 0.25]), "")
    grid = ["pbr", "demo", "--method", "grid", "--resolution", "8", "--q-grid", "0.0,0.5,1.0",
            "--format", "json"]
    assert checks.Checker().check(meta_of(grid), grid, 0, demo([0.1, 0.0625 + 0.12, 0.25]), "") is None
    assert checks.Checker().check(meta_of(grid), grid, 0, demo([0.0, 0.06, 0.25]), "")
    assert checks.Checker().check(meta_of(grid), grid, 0, demo([0.0, 0.0625 + 0.13, 0.25]), "")
    scan = ["pbr", "scan", "--eps-grid", "0.01,0.3", "--format", "json"]

    def curve(qs):
        return json.dumps([{"eps": x, "q_max": q} for x, q in zip((0.01, 0.3), qs)])

    assert checks.Checker().check(meta_of(scan), scan, 0, curve([0.2 - 5e-10, 1.0]), "") is None
    assert checks.Checker().check(meta_of(scan), scan, 0, curve([0.2 + 1e-8, 1.0]), "")


def test_measure_and_enumerate_checks_reject_planted_rows():
    argv = ["gas", "measure", "--n", "3", "--m", "3", "--e", "2", "--format", "json"]
    law = oracles.tagged_law(3, 3, 2)
    good = [{"outcome": f"eps={i}", "eps": float(i), "p": float(p)} for i, p in enumerate(law)]
    assert checks.Checker().check(meta_of(argv), argv, 0, json.dumps(good), "") is None
    bad = [dict(r) for r in good]
    bad[0]["p"] += 1e-9
    assert checks.Checker().check(meta_of(argv), argv, 0, json.dumps(bad), "")

    argv = ["gas", "enumerate", "--n", "3", "--m", "3", "--e", "2", "--format", "json"]
    total = oracles.total_microstates(3, 3, 2)
    rows = [{"binning": list(b), "omega": oracles.omega(b), "log_omega": math.log(oracles.omega(b)),
             "entropy": math.log(oracles.omega(b)), "mu": oracles.omega(b) / total}
            for b in sorted(oracles.all_binnings(3, 3, 2))]
    assert checks.Checker().check(meta_of(argv), argv, 0, json.dumps(rows), "") is None
    assert checks.Checker().check(meta_of(argv), argv, 0, json.dumps(rows[:-1]), "")
    assert checks.Checker().check(meta_of(argv), argv, 0, json.dumps(rows[::-1]), "")


def test_walk_check_bound_and_planted_counts():
    n, m, e, steps = 8, 4, 12, 20000
    law = oracles.binning_law(n, m, e)
    rng = random.Random(3)
    keys = list(law)
    draws = rng.choices(keys, weights=[float(law[k]) for k in keys], k=steps)
    counts = {k: draws.count(k) for k in set(draws)}
    tv = checks.check_walk(counts, law, n, steps)
    assert tv < checks.walk_tv_bound(len(law), n, steps) / 3
    with pytest.raises(checks.CheckFailed):      # visits do not sum to steps
        checks.check_walk(dict(counts, **{}), law, n, steps + 1)
    with pytest.raises(checks.CheckFailed):      # a key that is no binning
        checks.check_walk({(8, 0, 0, 1): 1, **counts}, law, n, steps + 1)
    with pytest.raises(checks.CheckFailed):      # all mass on one binning
        checks.check_walk({keys[0]: steps}, law, n, steps)


def test_ontology_checks_use_the_models_own_law():
    doc = {"lambda": ["a", "b", "c"],
           "preparations": [{"name": "P", "mu": [0.5, 0.5, 0.0]},
                            {"name": "Q", "mu": [0.0, 0.25, 0.75]}],
           "measurements": [{"name": "M", "outcomes": ["x", "y"],
                             "xi": [[1.0, 0.5, 0.0], [0.0, 0.5, 1.0]]}]}
    doc["born_targets"] = {p["name"]: {"M": oracles.outcome_law(p["mu"], doc["measurements"][0]["xi"])}
                           for p in doc["preparations"]}
    checker = checks.Checker({"m.json": doc})
    argv = ["ontology", "overlap", "m.json", "--pair", "P", "Q", "--format", "json"]
    good = {"class": "partial", "omega": 0.25, "common_support": ["b"]}
    assert checker.check(meta_of(argv), argv, 0, json.dumps(good), "") is None
    assert checks.Checker({"m.json": doc}).check(
        meta_of(argv), argv, 0, json.dumps(dict(good, **{"class": "none"})), "")
    argv = ["ontology", "classify", "m.json"]
    verdict = {"verdict": "minimal (psi-epistemic)",
               "per_lambda": {"a": ["P"], "b": ["P", "Q"], "c": ["Q"]}}
    assert checker.check(meta_of(argv), argv, 0, json.dumps(verdict), "") is None
    assert checks.Checker({"m.json": doc}).check(
        meta_of(argv), argv, 0, json.dumps(dict(verdict, verdict="non-minimal (psi-ontic)")), "")
    argv = ["ontology", "check", "m.json"]
    table = [{"preparation": p, "measurement": "M", "outcome": o, "target": t, "actual": t,
              "deviation": 0.0}
             for p, per in doc["born_targets"].items() for o, t in zip(("x", "y"), per["M"])]
    assert checker.check(meta_of(argv), argv, 0,
                         json.dumps({"max_deviation": 0.0, "table": table}), "") is None
    table[1] = dict(table[1], actual=table[1]["actual"] + 1e-9, deviation=1e-9)
    assert checks.Checker({"m.json": doc}).check(
        meta_of(argv), argv, 0, json.dumps({"max_deviation": 1e-9, "table": table}), "")


def test_repeated_walk_must_print_the_same_counts():
    argv = ["gas", "sample", "--n", "3", "--m", "3", "--e", "2", "--steps", "4", "--seed", "1"]
    checker = checks.Checker()
    first = json.dumps({"[1, 2, 0]": 2, "[2, 0, 1]": 2})
    assert checker.check(meta_of(argv), argv, 0, first, "") is None
    assert checker.check(meta_of(argv), argv, 0, first, "") is None
    assert checker.check(meta_of(argv), argv, 0, json.dumps({"[1, 2, 0]": 3, "[2, 0, 1]": 1}), "")


@pytest.mark.parametrize("size", [1, 2, 3, 10, 101])
def test_percentile_matches_statistics_inclusive(size):
    rng = random.Random(size)
    xs = [rng.expovariate(1.0) for _ in range(size)]
    assert median(xs) == pytest.approx(statistics.median(xs), rel=1e-12)
    if size > 1:
        deciles = statistics.quantiles(xs, n=10, method="inclusive")
        assert percentile(xs, 90) == pytest.approx(deciles[8], rel=1e-12)
        quartiles = statistics.quantiles(xs, n=4, method="inclusive")
        assert percentile(xs, 25) == pytest.approx(quartiles[0], rel=1e-12)
    assert percentile(xs, 0) == min(xs) and percentile(xs, 100) == max(xs)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_scipy_import_time_counts_outermost_scipy_modules_only():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        20 |         30 |   scipy",
        "import time:       100 |        200 |     scipy.linalg",
        "import time:        50 |        250 |   scipy.optimize",
        "import time:         5 |        285 | microcanon.pbr",
        "import time:         7 |          7 | json",
    ])
    assert scipy_import_s(log) == pytest.approx(280e-6)


def test_workloads_are_seeded(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 5, str(tmp_path))
        b = workloads.build(name, 5, str(tmp_path))
        c = workloads.build(name, 6, str(tmp_path))
        assert [op.argv for op in a.ops] == [op.argv for op in b.ops]
        assert [op.argv for op in a.ops] != [op.argv for op in c.ops]
        assert sorted(op.command for op in a.ops) == sorted(op.command for op in c.ops)


def test_rolling_scale_follows_a_slow_spell_and_ignores_one_outlier():
    ref = calibrate.REFERENCE_S
    times = [ref] * 30 + [2 * ref] * 30
    times[10] = 10 * ref                  # one slow kernel run among fast ones
    scale = calibrate.rolling_scale(times)
    assert scale[10] == 1.0
    assert scale[0] == 1.0 and scale[-1] == 0.5
    assert all(a >= b for a, b in zip(scale, scale[1:]))

"""Acceptance suite: one check per criterion, one pass/fail line each.

Two of the physical claims behind the ideal-gas analogy are large-N,
per-particle statements, and the checks below assert them in that form:

* ``test_c2_argmax_matches_fit_within_10_percent`` — the most probable
  binning approaches the Boltzmann occupancies.  The variational fit drops
  Stirling's O(1) term and the argmax is an integer lattice point, so the
  two differ by up to about two particles per bin at any N (pinned in
  test_ensemble.py).  At N = 60 that is a 100% relative miss in bins the
  fit fills with less than one particle, and still 38% in the worst bin it
  fills with at least one.  The check therefore holds E/N fixed at states
  that miss at N = 60 and grows N until the fit's thinnest bin holds
  2 / 0.10 = 20 particles; there the 10%-per-bin bound must hold.  The
  N = 60 figures stay in the printed line.
* ``test_c3_offset_root_is_nkt_plus_eps0`` — the self-consistent total
  energy with a ground offset is N*(kT + eps0): every particle pays the
  offset.  Quadrature of eps * rho(eps) confirms the root independently of
  the closed-form residual, and shows that N*kT + eps0 is not a root.
"""

import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from microcanon import continuum, ensemble, ontology, pbr


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {status}: {name}{suffix}")


def test_c1_microstate_count_oracle():
    # every GasSpec with N <= 8, M <= 5 against exhaustive per-particle
    # assignment counting
    t0 = time.monotonic()
    checked = 0
    for n in range(1, 9):
        for m in range(1, 6):
            groups: dict[int, Counter] = {}
            for levels in itertools.product(range(m), repeat=n):
                e = sum(levels)
                occ = [0] * m
                for lv in levels:
                    occ[lv] += 1
                groups.setdefault(e, Counter())[tuple(occ)] += 1
            for e in range(n * (m - 1) + 1):
                spec = ensemble.GasSpec(n=n, m=m, e_units=e)
                states = ensemble.enumerate_binnings(spec)
                expected = groups.get(e, Counter())
                assert sorted(expected) == states
                for s in states:
                    assert ensemble.multiplicity(s) == expected[s]
                checked += len(states)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report("c1 microstate-count oracle", True,
           f"{checked} binnings, {elapsed:.1f}s")


def test_c2_stirling_variants_agree():
    t0 = time.monotonic()
    worst = 0.0
    for e in range(1, 60 * 3):
        f1, f2 = ensemble.stirling_compare(ensemble.GasSpec(n=60, m=4, e_units=e))
        worst = max(worst, abs(f1.beta - f2.beta))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    report("c2 stirling variants give identical beta", ok,
           f"max |d beta| = {worst:.2e}")
    assert ok


def _argmax_vs_fit(n: int, m: int, e: int):
    """Exact argmax binning and Boltzmann fit occupancies, bin by bin."""
    spec = ensemble.GasSpec(n=n, m=m, e_units=e)
    best = ensemble.most_probable_binnings(spec)[0]
    return best, ensemble.boltzmann_fit(spec).predicted


def test_c2_argmax_matches_fit_within_10_percent():
    m = 4
    rel_tol = 0.10
    # |argmax - fit| stays within about two particles per bin at every N
    # (test_ensemble.py), so a 10% relative bound is only meaningful once
    # the fit's thinnest bin holds 2 / 0.10 = 20 particles.
    thin_min = 2.0 / rel_tol

    # small-N discrepancy, reported but not asserted
    worst_rel = worst_abs = 0.0
    worst_at = ""
    for e in range(1, 60 * (m - 1)):
        exact, fit = _argmax_vs_fit(60, m, e)
        for x, p in zip(exact, fit):
            worst_abs = max(worst_abs, abs(x - p))
            if abs(x - p) / p > worst_rel:
                worst_rel, worst_at = abs(x - p) / p, f" at E={e}, binning={exact}"

    # E/N ratios that miss the 10% bound at N = 60 (E = 20, 28, 35, 145),
    # each at the smallest N, a multiple of the ratio's denominator, at
    # which the fit puts at least thin_min particles in every bin; the fit
    # occupancies at fixed E/N scale linearly with N
    large = []
    for ratio in [Fraction(1, 3), Fraction(7, 15), Fraction(7, 12), Fraction(29, 12)]:
        q = ratio.denominator
        unit = ensemble.boltzmann_fit(
            ensemble.GasSpec(n=q, m=m, e_units=ratio.numerator))
        n = q * math.ceil(thin_min / min(unit.predicted))
        exact, fit = _argmax_vs_fit(n, m, int(ratio * n))
        assert min(fit) >= thin_min
        large.append((ratio, n, max(abs(x - p) / p for x, p in zip(exact, fit))))

    ok = all(rel <= rel_tol for _, _, rel in large)
    report("c2 argmax within 10% relative of fit at large N", ok,
           ", ".join(f"E/N={r}: {rel:.1%} at N={n}" for r, n, rel in large)
           + f"; at N=60 worst {worst_rel:.0%}{worst_at}, "
           f"worst absolute {worst_abs:.2f} particles")
    assert ok


def test_c3_large_n_root_is_nkt():
    t0 = time.monotonic()
    e1 = continuum.solve_total_energy(continuum.ContinuumGas(n=1000.0, t=1.0))
    ok = abs(e1 - 1000.0) <= 1e-9 * 1000.0 and time.monotonic() - t0 < 1.0
    report("c3 large-N root equals NkT", ok, f"E1 = {e1!r}")
    assert ok


def test_c3_offset_root_is_nkt_plus_eps0():
    n, k, t, eps0 = 1000.0, 1.0, 1.0, 5.0  # continuum works in k = 1 units
    gas = continuum.ContinuumGas(n=n, t=t, eps0=eps0)
    e1 = continuum.solve_total_energy(gas)
    expected = n * (k * t + eps0)

    def self_consistent(x):
        # energy carried by rho at total energy x, by quadrature rather
        # than the closed form behind energy_residual
        carried, _ = integrate.quad(
            lambda e: e * continuum.rho(e, gas, x), eps0, x)
        return abs(carried - x) <= 1e-9 * x

    once_per_gas = n * k * t + eps0
    ok = (abs(e1 - expected) <= 1e-9 * expected and self_consistent(e1)
          and not self_consistent(once_per_gas))
    report("c3 offset root equals N(kT + eps0)", ok,
           f"E1 = {e1!r}, expected {expected!r}; "
           f"N*kT + eps0 = {once_per_gas!r} is not self-consistent")
    assert ok


def test_c3_residual_closed_form():
    worst = 0.0
    for n in [2, 5, 10, 30]:
        gas = continuum.ContinuumGas(n=float(n), t=1.0)
        expected = n * n / (math.exp(n) - 1.0)
        got = continuum.energy_residual(float(n), gas)
        worst = max(worst, abs(got - expected) / expected)
    ok = worst <= 1e-12
    report("c3 residual closed form at E1 = NkT", ok, f"worst rel {worst:.2e}")
    assert ok


def test_c4_continuum_normalization():
    t0 = time.monotonic()
    worst = 0.0
    for n in [2.0, 10.0, 1000.0]:
        for eps0 in [0.0, 0.5, 5.0]:
            gas = continuum.ContinuumGas(n=n, t=1.0, eps0=eps0)
            e1 = eps0 + n + 1.0
            val, _ = integrate.quad(lambda e: continuum.rho(e, gas, e1), eps0, e1)
            worst = max(worst, abs(val - n) / n)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    report("c4 quadrature of rho returns N (9 combos)", ok,
           f"worst rel {worst:.2e}")
    assert ok


def test_c5_gas_bridge():
    t0 = time.monotonic()
    gm = ontology.gas_model(ensemble.GasSpec(n=3, m=3, e_units=2))
    probs = gm.outcome_probabilities_exact()
    exact_ok = probs[0] == Fraction(1, 2)
    deltas = [
        ontology.peak_approximation_delta(ensemble.GasSpec(n=n, m=3, e_units=(2 * n) // 3))
        for n in [3, 30, 150]
    ]
    mono_ok = deltas[0] > deltas[1] > deltas[2]
    elapsed = time.monotonic() - t0
    ok = exact_ok and mono_ok and elapsed < 60.0
    report("c5 gas bridge: exact P and shrinking peak error", ok,
           f"P(eps0) = {probs[0]}, deltas = {[f'{d:.2e}' for d in deltas]}")
    assert ok


def test_c6_overlap_taxonomy():
    import pathlib
    marbles = ontology.load_model(
        str(pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "marbles.json"))

    def rep(a, b):
        return ontology.overlap_classify(
            marbles.preparation(a), marbles.preparation(b), marbles.lam)

    ab, cd, ef = rep("A", "B"), rep("C", "D"), rep("E", "F")
    ok = (
        ab.classification == ontology.OVERLAP_COMPLETE and ab.overlap_mass == 0.75
        and cd.classification == ontology.OVERLAP_NONE and cd.overlap_mass == 0.0
        and ef.classification == ontology.OVERLAP_PARTIAL and ef.overlap_mass == 0.25
    )

    def verdict(names):
        return ontology.information_class(ontology.OntModel(
            lam=marbles.lam,
            preparations=tuple(marbles.preparation(n) for n in names),
            measurements=marbles.measurements,
        )).verdict

    ok = ok and verdict(["A", "B"]) == ontology.VERDICT_MINIMAL
    ok = ok and verdict(["C", "D"]) == ontology.VERDICT_NON_MINIMAL
    report("c6 marble overlap taxonomy", ok,
           f"(A,B)={ab.classification}/{ab.overlap_mass}, "
           f"(C,D)={cd.classification}/{cd.overlap_mass}, "
           f"(E,F)={ef.classification}/{ef.overlap_mass}")
    assert ok


def test_c7_no_go_bound():
    t0 = time.monotonic()
    basis = pbr.pbr_basis()
    preps = pbr.product_preparations()
    annihilation_ok = all(
        abs(pbr.inner(basis.vectors[k], preps[k])) ** 2 <= 1e-12 for k in range(4))

    zero_val = pbr.min_forbidden_probability(0.0)
    witness = pbr.witness_model(0.0)
    max_dev, _ = ontology.born_deviation(witness)
    zero_ok = abs(zero_val) <= 1e-12 and max_dev <= 1e-10

    qs = [q / 10 for q in range(1, 11)]
    vals = [pbr.min_forbidden_probability(q) for q in qs]
    bound_ok = all(v >= q * q / 4 - 1e-6 for q, v in zip(qs, vals))
    mono_ok = all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    curve = pbr.epsilon_overlap_tradeoff([0.0, 0.01, 0.04, 0.0625])
    curve_ok = curve[0] == (0.0, 0.0) and all(
        b >= a for (_, a), (_, b) in zip(curve, curve[1:]))

    elapsed = time.monotonic() - t0
    ok = annihilation_ok and zero_ok and bound_ok and mono_ok and curve_ok \
        and elapsed < 60.0
    report("c7 overlap no-go bound", ok,
           f"min_fb(1.0) = {vals[-1]:.6f}, witness dev = {max_dev:.1e}, "
           f"{elapsed:.1f}s")
    assert ok


def test_c8_sampler():
    t0 = time.monotonic()
    spec = ensemble.GasSpec(n=3, m=3, e_units=2)
    steps = 100_000
    counts = ensemble.sample_microstates(spec, steps=steps, seed=42)
    again = ensemble.sample_microstates(spec, steps=steps, seed=42)
    freqs = ensemble.frequencies(counts)
    sigma = math.sqrt(0.25 / steps)
    dev = abs(freqs[(1, 2, 0)] - 0.5)
    elapsed = time.monotonic() - t0
    ok = counts == again and dev <= 3 * sigma and elapsed < 10.0
    report("c8 sampler frequencies and determinism", ok,
           f"|f - 1/2| = {dev:.4f} vs 3 sigma = {3 * sigma:.4f}")
    assert ok


def test_c9_cat_fixture():
    t0 = time.monotonic()
    rng = np.random.default_rng(2026)
    ok = True
    for _ in range(20):
        wa = rng.uniform(0.01, 0.99)
        phase = rng.uniform(0.0, 2 * math.pi)
        a = math.sqrt(wa)
        b = math.sqrt(1 - wa) * complex(math.cos(phase), math.sin(phase))
        fx = pbr.cat_fixture(a, b)
        if any(r.classification != ontology.OVERLAP_NONE
               for r in fx.overlaps.values()):
            ok = False
        dist = ontology.outcome_distribution(
            fx.model, "superposition", "alive-dead")
        if abs(dist[0] - wa) > 1e-12:
            ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    report("c9 cat fixture: disjoint supports, P(alive) = |a|^2", ok)
    assert ok

"""Lattice-gas statistics against brute-force microstate oracles."""

import importlib.util
import itertools
import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import brentq
from scipy.special import logsumexp

from microcanon import ensemble, ontology
from microcanon.errors import DegenerateEnergy, DomainError, InfeasibleEnergy, SizeLimit


BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_oracles():
    """bench/oracles.py, which computes from the definitions and imports nothing from microcanon."""
    spec = importlib.util.spec_from_file_location("bench_oracles", BENCH / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# small gases: particle count, bin count, ground offset and lattice step;
# each example is checked at every feasible energy
SMALL_GASES = st.tuples(st.integers(1, 8), st.integers(1, 7), st.integers(0, 2),
                        st.sampled_from([1.0, 0.5, 0.1, 2.5]))


def every_energy(n: int, m: int, eps0_units: int, delta: float):
    for excess in range(n * (m - 1) + 1):
        yield ensemble.GasSpec(n=n, m=m, e_units=excess + n * eps0_units, delta=delta,
                               eps0_units=eps0_units)


def replayed_walk(n: int, m: int, excess: int, steps: int, seed: int) -> Counter:
    """The walk replayed from whole-array draws, tallied by occupancy tuple after every step.

    Donors are the first `steps` draws of default_rng(seed) and recipients
    the next `steps`; particle p starts at min(m - 1, what is left of the
    excess).
    """
    draws = np.random.default_rng(seed).integers(0, n, size=2 * steps).tolist()
    levels, rem = [], excess
    for _ in range(n):
        levels.append(min(m - 1, rem))
        rem -= levels[-1]
    start = Counter(levels)
    occ = [start[i] for i in range(m)]
    want = Counter()
    for d, r in zip(draws[:steps], draws[steps:]):
        ld, lr = levels[d], levels[r]
        if d != r and ld > 0 and lr < m - 1:
            levels[d], levels[r] = ld - 1, lr + 1
            occ[ld] -= 1
            occ[ld - 1] += 1
            occ[lr] -= 1
            occ[lr + 1] += 1
        want[tuple(occ)] += 1
    return want


def brute_force_by_energy(n: int, m: int) -> dict[int, Counter]:
    """Group every per-particle level assignment by (energy, occupancy).

    Returns {e_units: Counter({occupancy: microstate count})} for a gas with
    eps0_units = 0.  This is the independent oracle for enumeration and
    multiplicity: it never touches factorials.
    """
    out: dict[int, Counter] = {}
    for levels in itertools.product(range(m), repeat=n):
        e = sum(levels)
        occ = [0] * m
        for lv in levels:
            occ[lv] += 1
        out.setdefault(e, Counter())[tuple(occ)] += 1
    return out


class TestEnumeration:
    def test_small_fixture(self):
        spec = ensemble.GasSpec(n=3, m=3, e_units=2)
        states = ensemble.enumerate_binnings(spec)
        assert states == [(1, 2, 0), (2, 0, 1)]
        assert all(type(s) is tuple and all(type(x) is int for x in s) for s in states)
        assert [ensemble.multiplicity(s) for s in states] == [3, 3]

    def test_brute_force_oracle_small(self):
        # exhaustive cross-check on a spread of sizes (the acceptance suite
        # runs the full N <= 8, M <= 5 sweep)
        for n, m in [(2, 2), (3, 3), (4, 3), (5, 2), (4, 4), (6, 3), (3, 7), (4, 6)]:
            groups = brute_force_by_energy(n, m)
            for e in range(n * (m - 1) + 1):
                spec = ensemble.GasSpec(n=n, m=m, e_units=e)
                states = ensemble.enumerate_binnings(spec)
                expected = groups.get(e, Counter())
                assert sorted(expected) == states
                for s in states:
                    assert ensemble.multiplicity(s) == expected[s]

    def test_eps0_shifts_energy(self):
        base = ensemble.GasSpec(n=3, m=3, e_units=2)
        shifted = ensemble.GasSpec(n=3, m=3, e_units=2 + 3 * 4, eps0_units=4)
        assert ensemble.enumerate_binnings(base) == ensemble.enumerate_binnings(shifted)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleEnergy):
            ensemble.enumerate_binnings(ensemble.GasSpec(n=2, m=3, e_units=5))
        with pytest.raises(InfeasibleEnergy):
            ensemble.enumerate_binnings(
                ensemble.GasSpec(n=2, m=3, e_units=1, eps0_units=1))

    def test_size_limit(self):
        spec = ensemble.GasSpec(n=40, m=10, e_units=120)
        with pytest.raises(SizeLimit):
            ensemble.enumerate_binnings(spec, max_states=5)

    def test_lexicographic_order(self):
        spec = ensemble.GasSpec(n=6, m=4, e_units=8)
        states = ensemble.enumerate_binnings(spec)
        assert states == sorted(states)


class TestMultiplicity:
    def test_exact_matches_log(self):
        spec = ensemble.GasSpec(n=8, m=4, e_units=10)
        for s in ensemble.enumerate_binnings(spec):
            omega = ensemble.multiplicity(s)
            assert isinstance(omega, int)
            assert math.log(omega) == pytest.approx(ensemble.entropy(s), rel=1e-12)

    def test_entropy_is_log_omega(self):
        spec = ensemble.GasSpec(n=3, m=3, e_units=2)
        s = ensemble.enumerate_binnings(spec)[0]
        assert ensemble.entropy(s) == pytest.approx(math.log(3))
        assert ensemble.entropy(s, k=2.5) == pytest.approx(2.5 * math.log(3))
        with pytest.raises(ValueError):
            ensemble.entropy(s, k=0.0)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_table_rows_match_the_factorial_quotient(self, m):
        # every binning with N <= 9: Omega equals N! // prod(n_i!), and
        # ln Omega equals entropy's float bit for bit
        for n in range(1, 10):
            for e in range(n * (m - 1) + 1):
                states = ensemble.enumerate_binnings(ensemble.GasSpec(n=n, m=m, e_units=e))
                omegas, log_omegas = ensemble.multiplicities(states)
                assert omegas == [math.factorial(n) // math.prod(map(math.factorial, s))
                                  for s in states]
                assert omegas == [ensemble.multiplicity(s) for s in states]
                assert [x.hex() for x in log_omegas] == [ensemble.entropy(s).hex() for s in states]

    def test_table_rows_at_large_n(self):
        states = ensemble.enumerate_binnings(ensemble.GasSpec(n=300, m=3, e_units=300))
        omegas, log_omegas = ensemble.multiplicities(states)
        assert omegas == [math.factorial(300) // math.prod(map(math.factorial, s)) for s in states]
        assert [x.hex() for x in log_omegas] == [ensemble.entropy(s).hex() for s in states]
        assert ensemble.multiplicities([]) == ([], [])

    @given(st.integers(1, 30), st.integers(1, 8), st.floats(0, 1), st.randoms())
    @settings(max_examples=60, deadline=None)
    @example(20, 5, 0.5, random.Random(0))
    def test_table_rows_in_any_order(self, n, m, share, rng):
        # in enumeration order most rows take the ratio to the row before;
        # reversed and shuffled, most take the product of binomials.  Grouped
        # by the count and energy of the bins before the last three, then
        # sorted by the last three, rows whose last three bins moved by
        # (+1, -2, +1) meet under different heads.
        e = round(share * n * (m - 1))
        states = ensemble.enumerate_binnings(ensemble.GasSpec(n=n, m=m, e_units=e),
                                             max_states=10 ** 9)
        assume(len(states) <= 20_000)
        shuffled = states[:]
        rng.shuffle(shuffled)
        by_tail = sorted(states, key=lambda s: (
            sum(s[:-3]), sum(i * x for i, x in enumerate(s[:-3])), s[-3:], s))
        for order in (states, states[::-1], shuffled, by_tail):
            omegas, log_omegas = ensemble.multiplicities(order)
            assert omegas == [ensemble.multiplicity(s) for s in order]
            assert [x.hex() for x in log_omegas] == [ensemble.entropy(s).hex() for s in order]

    def test_table_rows_at_the_particle_cap(self):
        # 10,001 rows of up to about 9,500 digits: the product of binomials
        # takes about 6 ms a row, the ratio to the row before about 10 us
        states = ensemble.enumerate_binnings(ensemble.GasSpec(n=20_000, m=3, e_units=20_000))
        assert len(states) == 10_001
        t0 = time.perf_counter()
        omegas, log_omegas = ensemble.multiplicities(states)
        assert time.perf_counter() - t0 < 3.0
        for i in range(0, len(states), 500):
            assert omegas[i] == ensemble.multiplicity(states[i])
            assert log_omegas[i].hex() == ensemble.entropy(states[i]).hex()

    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5))
    def test_permutation_invariance(self, occ):
        # Omega depends only on the multiset of occupancies, and equals
        # N! / prod(n_i!) with N = sum(n_i)
        reference = math.factorial(sum(occ)) // math.prod(math.factorial(x) for x in occ)
        assert ensemble.multiplicity(tuple(occ)) == reference
        assert ensemble.multiplicity(tuple(sorted(occ, reverse=True))) == reference

    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=2, max_value=4),
           st.integers(min_value=0, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_total_omega_counts_microstates(self, n, m, e):
        # sum of Omega over all binning states = number of per-particle
        # assignments at that energy, counted here by dynamic programming
        spec = ensemble.GasSpec(n=n, m=m, e_units=e)
        if not spec.is_feasible:
            return
        # dp[p][en] = assignments of p particles with total energy en
        dp = [[0] * (e + 1) for _ in range(n + 1)]
        dp[0][0] = 1
        for p in range(1, n + 1):
            for en in range(e + 1):
                dp[p][en] = sum(dp[p - 1][en - lv] for lv in range(m) if lv <= en)
        total = sum(ensemble.multiplicity(s)
                    for s in ensemble.enumerate_binnings(spec))
        assert total == dp[n][e]


class TestArgmax:
    def test_tie_reported(self):
        spec = ensemble.GasSpec(n=3, m=3, e_units=2)
        best = ensemble.most_probable_binnings(spec)
        assert best == [(1, 2, 0), (2, 0, 1)]

    def test_unique_peak(self):
        spec = ensemble.GasSpec(n=6, m=3, e_units=4)
        best = ensemble.most_probable_binnings(spec)
        states = ensemble.enumerate_binnings(spec)
        top = max(ensemble.multiplicity(s) for s in states)
        assert all(ensemble.multiplicity(s) == top for s in best)
        assert all(ensemble.multiplicity(s) < top
                   for s in states if s not in best)

    @pytest.mark.parametrize("n,m,e", [(301, 3, 200), (350, 3, 351), (400, 3, 120),
                                       (320, 4, 300), (360, 4, 500)])
    def test_large_n_argmax_is_exact(self, n, m, e):
        # argmax of Omega from math.comb products over the test's own
        # enumeration of (n_2, ..., n_{m-1}); n_1 and n_0 follow
        omegas = {}
        for upper in itertools.product(*(range(e // i + 1) for i in range(2, m))):
            n1 = e - sum(i * x for i, x in enumerate(upper, start=2))
            n0 = n - n1 - sum(upper)
            if n1 < 0 or n0 < 0:
                continue
            occ = (n0, n1, *upper)
            omega, rest = 1, n
            for x in occ:
                omega *= math.comb(rest, x)
                rest -= x
            omegas[occ] = omega
        top = max(omegas.values())
        expected = sorted(occ for occ, omega in omegas.items() if omega == top)
        spec = ensemble.GasSpec(n=n, m=m, e_units=e)
        assert ensemble.most_probable_binnings(spec) == expected


    @given(SMALL_GASES)
    @settings(max_examples=40, deadline=None)
    def test_ties_equal_enumeration(self, gas):
        for spec in every_energy(*gas):
            states = ensemble.enumerate_binnings(spec)
            assert ensemble.count_binnings(spec) == len(states)
            omegas = [ensemble.multiplicity(s) for s in states]
            top = max(omegas)
            assert ensemble.most_probable_binnings(spec) == [
                s for s, omega in zip(states, omegas) if omega == top]

    @pytest.mark.parametrize("n,m,e", [(120, 6, 300), (300, 8, 700)])
    def test_equals_oracle_search(self, n, m, e):
        # 1.1e6 and 2.7e10 binnings: the cap is set to C(n+m-1, m-1), the
        # occupancy vectors with the energy ignored, so no count runs
        spec = ensemble.GasSpec(n=n, m=m, e_units=e)
        t0 = time.perf_counter()
        best = ensemble.most_probable_binnings(spec, max_states=math.comb(n + m - 1, m - 1))
        elapsed = time.perf_counter() - t0
        assert best == bench_oracles().argmax_binnings(n, m, e)
        assert elapsed < 1.0


class TestTaggedLaw:
    @given(SMALL_GASES)
    @settings(max_examples=40, deadline=None)
    def test_equals_the_enumerated_bridge(self, gas):
        for spec in every_energy(*gas):
            exact = ontology.gas_model(spec).outcome_probabilities_exact()
            assert ensemble.tagged_law(spec) == exact

    def test_two_bins_in_closed_form(self):
        # at m = 2 the tagged particle is excited with probability E / N
        t0 = time.perf_counter()
        law = ensemble.tagged_law(ensemble.GasSpec(n=20_000, m=2, e_units=10_000))
        elapsed = time.perf_counter() - t0
        assert law == (Fraction(1, 2), Fraction(1, 2))
        assert ensemble.tagged_law(ensemble.GasSpec(n=20_000, m=2, e_units=7)) == (
            Fraction(19_993, 20_000), Fraction(7, 20_000))
        assert elapsed < 1.0

    @pytest.mark.parametrize("n,m,e", [(1000, 10_000, 1000 * 9999), (20_000, 100, 1_980_000),
                                       (20_000, 10_000, 20_000 * 9999 - 5),
                                       (20_000, 100, 1_979_970)])
    def test_top_energy_runs_from_the_near_end(self, n, m, e):
        # one or a few binnings, E up to N(m-1): G^(N-1) is palindromic, so
        # the recurrence runs about m steps from its top, not E from its foot
        spec = ensemble.GasSpec(n=n, m=m, e_units=e)
        t0 = time.perf_counter()
        law = ensemble.tagged_law(spec)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        # bin i <-> bin m-1-i maps the gas at E to the gas at N(m-1) - E
        flipped = ensemble.GasSpec(n=n, m=m, e_units=n * (m - 1) - e)
        assert law == ensemble.tagged_law(flipped)[::-1]

    def test_total_multiplicity_is_the_microstate_count(self):
        oracles = bench_oracles()
        for n, m, e in [(1, 1, 0), (1, 4, 2), (7, 3, 5), (60, 6, 150), (300, 8, 700)]:
            spec = ensemble.GasSpec(n=n, m=m, e_units=e)
            assert ensemble.total_multiplicity(spec) == oracles.total_microstates(n, m, e)


class TestCountingGuards:
    @pytest.mark.parametrize("n,m,e", [(1, 1, 0), (5, 1, 0), (7, 2, 3), (10, 3, 0), (10, 3, 9),
                                       (12, 4, 15), (6, 4, 18), (9, 5, 16), (20, 6, 50)])
    def test_state_cap_parity(self, n, m, e):
        # every function raises exactly where enumeration does: past the count
        spec = ensemble.GasSpec(n=n, m=m, e_units=e)
        count = len(ensemble.enumerate_binnings(spec, max_states=10 ** 9))
        for fn in (ensemble.enumerate_binnings, ensemble.most_probable_binnings,
                   ensemble.tagged_law):
            with pytest.raises(SizeLimit, match=f"^more than {count - 1} binning states$"):
                fn(spec, max_states=count - 1)
            fn(spec, max_states=count)

    def test_check_order(self):
        big, wide = ensemble.MAX_EXACT_PARTICLES + 1, ensemble.MAX_BINS + 1
        for fn in (ensemble.enumerate_binnings, ensemble.most_probable_binnings,
                   ensemble.tagged_law):
            with pytest.raises(InfeasibleEnergy):
                fn(ensemble.GasSpec(n=big, m=wide, e_units=big * (wide - 1) + 1))
            with pytest.raises(SizeLimit, match="bins"):
                fn(ensemble.GasSpec(n=big, m=wide, e_units=big))
            with pytest.raises(SizeLimit, match=f"{ensemble.MAX_EXACT_PARTICLES} particles"):
                fn(ensemble.GasSpec(n=big, m=4, e_units=big), max_states=10)
            with pytest.raises(SizeLimit, match=f"{ensemble.MAX_EXACT_PARTICLES} particles"):
                fn(ensemble.GasSpec(n=big, m=2, e_units=big // 2))

    def test_particle_cap_comes_before_the_recurrence(self, monkeypatch):
        def unreached(*args):
            raise AssertionError("counting ran past the particle cap")
        monkeypatch.setattr(ensemble, "_tagged_counts", unreached)
        big = ensemble.GasSpec(n=ensemble.MAX_EXACT_PARTICLES + 1, m=3, e_units=5)
        with pytest.raises(SizeLimit, match="particles"):
            ensemble.tagged_law(big)
        with pytest.raises(SizeLimit, match="particles"):
            ensemble.total_multiplicity(big)

    def test_recurrence_budget_comes_before_the_first_step(self, monkeypatch):
        # a cap above C(N+m-1, m-1) skips the count; 10^7 steps on numbers of
        # up to 2e5 bits (2e12 step-bits) would run for minutes
        def unreached(*args):
            raise AssertionError("the recurrence ran past its budget")
        monkeypatch.setattr(ensemble, "_power_coefficients", unreached)
        spec = ensemble.GasSpec(n=20_000, m=1000, e_units=10 ** 7)
        message = f"^more than {ensemble.MAX_RECURRENCE_STEP_BITS} recurrence step-bits$"
        for call in (lambda: ensemble.tagged_law(spec, max_states=10 ** 4000),
                     lambda: ensemble.total_multiplicity(spec),
                     lambda: ensemble.walk_tv(spec, {})):
            with pytest.raises(SizeLimit, match=message):
                call()

    @pytest.mark.parametrize("n,m,e", [(20_000, 3, 20_000), (20_000, 2, 10_000),
                                       (20_000, 4, 3400)])
    def test_recurrence_budget_admits_the_default_cap(self, n, m, e):
        # the longest recurrences the default binning cap lets through
        law = ensemble.tagged_law(ensemble.GasSpec(n=n, m=m, e_units=e))
        assert sum(law) == 1

    def test_count_binnings_walks_once(self, monkeypatch):
        # C(15, 3) = 455 vectors: the guard counts below that cap, and hands
        # its count back when it passes
        spec = ensemble.GasSpec(n=12, m=4, e_units=15)
        states = len(ensemble.enumerate_binnings(spec))
        walks = []
        walk = ensemble._binning_count
        monkeypatch.setattr(ensemble, "_binning_count",
                            lambda spec, cap: walks.append(cap) or walk(spec, cap))
        for cap in (10 ** 6, states):
            walks.clear()
            assert ensemble.count_binnings(spec, max_states=cap) == states
            assert walks == [cap]
        walks.clear()
        with pytest.raises(SizeLimit, match="binning states"):
            ensemble.count_binnings(spec, max_states=states - 1)
        assert walks == [states - 1]

    @given(n=st.integers(1, 12), m=st.integers(1, 8), eps0_units=st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_binning_count_is_the_listing_length_or_a_bound_past_the_cap(self, n, m, eps0_units):
        # the listing walks occupancy ranges; the count multiplies series
        for spec in every_energy(n, m, eps0_units, 1.0):
            count = len(ensemble.enumerate_binnings(spec, max_states=10 ** 9))
            for cap in (0, 1, count - 1, count, 10 ** 9):
                got = ensemble._binning_count(spec, cap)
                if got <= cap:
                    assert got == count
                else:
                    assert cap < got <= count

    def test_counting_lists_no_binning(self, monkeypatch):
        def unlisted(spec):
            raise AssertionError("walked the occupancy ranges")
        monkeypatch.setattr(ensemble, "_last_free_ranges", unlisted)
        oracles = bench_oracles()
        for n, m, e, cap in [(12, 4, 15, 10 ** 6), (12, 4, 15, 100), (20, 6, 50, 10 ** 6),
                             (300, 8, 700, 10 ** 12), (20_000, 100, 56, 10 ** 6)]:
            spec = ensemble.GasSpec(n=n, m=m, e_units=e)
            assert ensemble.count_binnings(spec, max_states=cap) == oracles.binning_count(n, m, e)
            assert sum(ensemble.tagged_law(spec, max_states=cap)) == 1

    def test_state_cap_parity_past_ten_billion(self):
        # 27,350,091,188 binnings: C(307, 7) = 4.8e13 vectors, so the cap needs the count
        spec = ensemble.GasSpec(n=300, m=8, e_units=700)
        count = bench_oracles().binning_count(300, 8, 700)
        for fn in (ensemble.count_binnings, ensemble.most_probable_binnings,
                   ensemble.tagged_law):
            with pytest.raises(SizeLimit, match=f"^more than {count - 1} binning states$"):
                fn(spec, max_states=count - 1)
            fn(spec, max_states=count)
        assert ensemble.count_binnings(spec, max_states=count) == count

    def test_bin_cap_comes_before_the_recurrence(self, monkeypatch):
        # the recurrence pads its window to m entries, gigabytes at m = 10^9
        def unreached(*args):
            raise AssertionError("counting ran past the bin cap")
        monkeypatch.setattr(ensemble, "_power_coefficients", unreached)
        big, wide = ensemble.MAX_EXACT_PARTICLES + 1, ensemble.MAX_BINS + 1
        with pytest.raises(InfeasibleEnergy):
            ensemble.total_multiplicity(ensemble.GasSpec(n=big, m=wide, e_units=big * wide))
        for spec in (ensemble.GasSpec(n=3, m=wide, e_units=2),
                     ensemble.GasSpec(n=big, m=wide, e_units=big)):
            with pytest.raises(SizeLimit, match=f"^more than {ensemble.MAX_BINS} bins$"):
                ensemble.total_multiplicity(spec)
            with pytest.raises(SizeLimit, match=f"^more than {ensemble.MAX_BINS} bins$"):
                ensemble.walk_tv(spec, {})


def reference_beta(target: float, m: int) -> tuple[float, float]:
    """Reduced beta with mean bin index `target` under weights exp(-b i), by
    scipy's brentq on a logsumexp mean, and the index variance at that root.

    A target above (m-1)/2 is reflected, b -> -b and i -> m-1-i, so the
    mean is always read near its own end and keeps its relative precision.
    """
    i = np.arange(m, dtype=float)
    flip = target > (m - 1) / 2
    goal = (m - 1) - target if flip else target     # exact: both near m-1

    def mean(c: float) -> float:
        return float(np.exp(logsumexp(-c * i[1:], b=i[1:]) - logsumexp(-c * i)))

    c = brentq(lambda c: mean(c) - goal, 0.0, 60.0, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    w = np.exp(-c * i - logsumexp(-c * i))
    return (-c if flip else c), float(w @ (i - w @ i) ** 2)


class TestBoltzmannFit:
    @pytest.mark.parametrize("n,m", [(1000, 2), (100, 5), (400, 40), (2000, 1000),
                                     (20_000, 10_000)])
    def test_beta_matches_an_independent_root(self, n, m):
        # energies one and two units from either end, and at a third and two
        # thirds.  The fit's mean index is off by a few ulps of the target,
        # which moves the root by that over the slope d(mean)/db = -variance;
        # the bisection adds its bracket width.
        top = n * (m - 1)
        for e in (1, 2, top // 3, 2 * top // 3, top - 2, top - 1):
            spec = ensemble.GasSpec(n=n, m=m, e_units=e)
            root, variance = reference_beta(e / n, m)
            tol = ensemble.BETA_TOL + 8 * 2 ** -53 * (e / n) / variance
            for fit in ensemble.stirling_compare(spec):
                assert abs(fit.beta - root) <= tol, (e, fit.stirling_variant)

    def test_constraints_satisfied(self):
        spec = ensemble.GasSpec(n=60, m=4, e_units=75)
        fit = ensemble.boltzmann_fit(spec)
        pred = np.array(fit.predicted)
        assert pred.sum() == pytest.approx(spec.n, rel=1e-12)
        assert float(pred @ spec.energies) == pytest.approx(spec.total_energy, rel=1e-12)

    def test_geometric_ratio(self):
        # n_{i+1} / n_i = exp(-beta * delta) for every adjacent pair
        spec = ensemble.GasSpec(n=50, m=6, e_units=80, delta=0.25)
        fit = ensemble.boltzmann_fit(spec)
        ratio = math.exp(-fit.beta * spec.delta)
        for a, b in zip(fit.predicted, fit.predicted[1:]):
            assert b / a == pytest.approx(ratio, rel=1e-12)

    def test_beta_sign(self):
        # below the midpoint energy the population decreases with energy
        cold = ensemble.boltzmann_fit(ensemble.GasSpec(n=10, m=3, e_units=5))
        hot = ensemble.boltzmann_fit(ensemble.GasSpec(n=10, m=3, e_units=15))
        flat = ensemble.boltzmann_fit(ensemble.GasSpec(n=10, m=3, e_units=10))
        assert cold.beta > 0
        assert hot.beta < 0
        assert abs(flat.beta) < 1e-10

    def test_delta_scaling(self):
        # halving the lattice step doubles beta and leaves predictions fixed
        a = ensemble.boltzmann_fit(ensemble.GasSpec(n=20, m=4, e_units=18, delta=1.0))
        b = ensemble.boltzmann_fit(ensemble.GasSpec(n=20, m=4, e_units=18, delta=0.5))
        assert b.beta == pytest.approx(2.0 * a.beta, rel=1e-12)
        assert b.predicted == pytest.approx(a.predicted, rel=1e-12)

    def test_boundary_energies_degenerate(self):
        with pytest.raises(DegenerateEnergy):
            ensemble.boltzmann_fit(ensemble.GasSpec(n=5, m=3, e_units=0))
        with pytest.raises(DegenerateEnergy):
            ensemble.boltzmann_fit(ensemble.GasSpec(n=5, m=3, e_units=10))
        with pytest.raises(DegenerateEnergy):
            ensemble.boltzmann_fit(ensemble.GasSpec(n=5, m=1, e_units=0))

    @pytest.mark.parametrize("delta", [1e-320, 6e307])
    def test_float_overflow_is_a_domain_error(self, delta):
        # beta = b / delta overflows at a subnormal step, the energy sums at
        # a huge one whose top bin energy (1.2e308) is still finite; neither
        # may reach numpy as inf
        with pytest.raises(DomainError, match="overflow"):
            ensemble.boltzmann_fit(ensemble.GasSpec(n=5, m=3, e_units=4, delta=delta))

    def test_argmax_close_in_absolute_terms(self):
        # The variational fit tracks the exact argmax to within about two
        # particles per bin at N = 60; the relative error in thin bins is
        # much larger (up to 100% where the fit puts under one particle),
        # so absolute is the meaningful pin here.  test_acceptance.py
        # builds its 10%-relative check on this bound: it grows N until
        # the thinnest fitted bin holds 2 / 0.10 = 20 particles.
        spec_m = 4
        for e in range(1, 60 * (spec_m - 1)):
            spec = ensemble.GasSpec(n=60, m=spec_m, e_units=e)
            fit = ensemble.boltzmann_fit(spec)
            best = ensemble.most_probable_binnings(spec)[0]
            diffs = [abs(x - p) for x, p in zip(best, fit.predicted)]
            assert max(diffs) <= 2.0


class TestStirlingVariants:
    def test_beta_identical_on_grid(self):
        specs = [
            ensemble.GasSpec(n=n, m=m, e_units=e)
            for n, m in [(10, 3), (25, 4), (60, 4), (100, 5), (200, 6)]
            for e in [n * (m - 1) // 4, n * (m - 1) // 3, n * (m - 1) // 2,
                      2 * n * (m - 1) // 3]
            if 0 < e < n * (m - 1)
        ]
        assert len(specs) >= 20
        for spec in specs:
            f1, f2 = ensemble.stirling_compare(spec)
            assert abs(f1.beta - f2.beta) <= 1e-10
            assert f1.predicted == pytest.approx(f2.predicted, rel=1e-10)

    def test_alpha_shifted_by_one(self):
        # dropping the -m term moves the stationarity constant into alpha
        f1, f2 = ensemble.stirling_compare(ensemble.GasSpec(n=60, m=4, e_units=75))
        assert f2.alpha - f1.alpha == pytest.approx(1.0, abs=1e-12)


class TestSampler:
    def test_determinism(self):
        spec = ensemble.GasSpec(n=3, m=3, e_units=2)
        a = ensemble.sample_microstates(spec, steps=5000, seed=7)
        b = ensemble.sample_microstates(spec, steps=5000, seed=7)
        assert a == b
        c = ensemble.sample_microstates(spec, steps=5000, seed=8)
        assert a != c

    def test_counts_total_steps(self):
        spec = ensemble.GasSpec(n=4, m=3, e_units=3)
        counts = ensemble.sample_microstates(spec, steps=3000, seed=1)
        assert sum(counts.values()) == 3000

    def test_only_feasible_states_visited(self):
        spec = ensemble.GasSpec(n=4, m=3, e_units=3)
        valid = set(ensemble.enumerate_binnings(spec))
        counts = ensemble.sample_microstates(spec, steps=3000, seed=1)
        assert set(counts) <= valid

    def test_chi_square_against_multiplicities(self):
        # stationary distribution is uniform over microstates, so binning
        # visit frequencies converge to Omega / sum(Omega)
        spec = ensemble.GasSpec(n=4, m=3, e_units=4)
        states = ensemble.enumerate_binnings(spec)
        omegas = [ensemble.multiplicity(s) for s in states]
        total = sum(omegas)
        steps = 200_000
        counts = ensemble.sample_microstates(spec, steps=steps, seed=11)
        chi2 = sum(
            (counts.get(s, 0) - steps * w / total) ** 2 / (steps * w / total)
            for s, w in zip(states, omegas)
        )
        # generous cutoff: the walk is autocorrelated, which inflates chi2
        # relative to the iid statistic by roughly the correlation time
        cutoff = stats.chi2.ppf(0.999, df=len(states) - 1)
        assert chi2 < 40 * cutoff

    def test_two_state_frequencies(self):
        spec = ensemble.GasSpec(n=3, m=3, e_units=2)
        freqs = ensemble.frequencies(
            ensemble.sample_microstates(spec, steps=100_000, seed=42))
        assert abs(freqs[(1, 2, 0)] - 0.5) < 0.01
        assert abs(freqs[(2, 0, 1)] - 0.5) < 0.01

    def test_bad_steps(self):
        spec = ensemble.GasSpec(n=3, m=3, e_units=2)
        with pytest.raises(ValueError):
            ensemble.sample_microstates(spec, steps=0, seed=1)

    @given(st.integers(1, 9), st.integers(1, 6), st.integers(1, 400), st.integers(0, 3))
    @example(2, 3, 2 * ensemble._CHUNK + 3, 5)
    @settings(max_examples=60, deadline=None)
    def test_chunked_draws_follow_one_generator(self, n, m, steps, seed):
        # donors are the generator's first `steps` draws and recipients the
        # next `steps`, whatever the chunk size; every feasible energy, the
        # two ends rejecting every move
        for excess in range(n * (m - 1) + 1):
            spec = ensemble.GasSpec(n=n, m=m, e_units=excess)
            assert (ensemble.sample_microstates(spec, steps=steps, seed=seed)
                    == replayed_walk(n, m, excess, steps, seed))

    @pytest.mark.parametrize("n,m,excess,steps,seed", [
        (4, 300, 560, 3000, 1),          # 1-byte fields, levels either side of the table's end
        (6, 600, 1500, 3000, 2),         # 1-byte fields, levels past the table
        (300, 200, 30000, 2000, 3),      # 2-byte fields, levels past the table
        (70000, 3, 300, 2000, 4),        # 4-byte fields, an occupancy past 65,535
        (70000, 100, 3_000_000, 500, 5),  # 4-byte fields, levels past the table
    ])
    def test_wide_fields_and_high_levels(self, n, m, excess, steps, seed):
        spec = ensemble.GasSpec(n=n, m=m, e_units=excess)
        assert (ensemble.sample_microstates(spec, steps=steps, seed=seed)
                == replayed_walk(n, m, excess, steps, seed))

    def test_walk_state_is_not_quadratic_in_bins(self):
        # a table of every bin's field step holds O(m^2 log N) bits, a
        # 52 MiB peak here; one step needs only the level list and the key
        spec = ensemble.GasSpec(n=10, m=ensemble.MAX_BINS, e_units=50_000)
        tracemalloc.start()
        try:
            ensemble.sample_microstates(spec, steps=1, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_walk_memory_does_not_grow_with_steps(self):
        spec = ensemble.GasSpec(n=18, m=5, e_units=36)
        peaks = []
        for steps in (100_000, 1_000_000):
            tracemalloc.start()
            try:
                ensemble.sample_microstates(spec, steps=steps, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 ** 20


class TestWalkTV:
    @pytest.mark.parametrize("n,m,e,steps,seed", [(3, 3, 2, 50, 1), (4, 3, 4, 500, 2),
                                                  (6, 4, 9, 40, 3), (6, 4, 9, 5000, 3),
                                                  (5, 5, 8, 300, 4)])
    def test_equals_the_sum_over_every_binning(self, n, m, e, steps, seed):
        spec = ensemble.GasSpec(n=n, m=m, e_units=e)
        counts = ensemble.sample_microstates(spec, steps=steps, seed=seed)
        states = ensemble.enumerate_binnings(spec)
        omegas = [ensemble.multiplicity(s) for s in states]
        exact = sum(abs(Fraction(counts.get(s, 0), steps) - Fraction(omega, sum(omegas)))
                    for s, omega in zip(states, omegas)) / 2
        assert ensemble.walk_tv(spec, counts) == float(exact)


class TestGasSpecValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ensemble.GasSpec(n=0, m=3, e_units=0)
        with pytest.raises(ValueError):
            ensemble.GasSpec(n=3, m=0, e_units=0)
        with pytest.raises(ValueError):
            ensemble.GasSpec(n=3, m=3, e_units=-1)
        with pytest.raises(ValueError):
            ensemble.GasSpec(n=3, m=3, e_units=2, delta=0.0)
        with pytest.raises(ValueError, match="finite"):
            ensemble.GasSpec(n=3, m=3, e_units=2, delta=math.inf)
        with pytest.raises(ValueError, match="top bin energy must be finite"):
            ensemble.GasSpec(n=3, m=3, e_units=2, delta=1e308)
        with pytest.raises(ValueError, match="top bin energy must be finite"):
            ensemble.GasSpec(n=3, m=1, e_units=6, delta=1e308, eps0_units=2)
        with pytest.raises(ValueError, match="top bin energy must be finite"):
            ensemble.GasSpec(n=3, m=10 ** 400, e_units=2)  # no float holds the bin index
        assert ensemble.GasSpec(n=3, m=3, e_units=2, delta=8e307).energy(2) == 1.6e308

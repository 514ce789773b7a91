"""Continuum density and the temperature/total-energy self-consistency."""

import json
import math

import pytest
from scipy import integrate

from microcanon import cli, continuum, ensemble
from microcanon.errors import DomainError, NoConvergence


class TestDensity:
    @pytest.mark.parametrize("n", [2.0, 10.0, 1000.0])
    @pytest.mark.parametrize("eps0", [0.0, 0.5, 5.0])
    def test_quadrature_normalization(self, n, eps0):
        # integral of rho over [eps0, e1] must give back the particle count
        gas = continuum.ContinuumGas(n=n, t=1.0, eps0=eps0)
        e1 = eps0 + n * gas.t + 1.0
        val, err = integrate.quad(lambda e: continuum.rho(e, gas, e1), eps0, e1)
        assert val == pytest.approx(n, rel=1e-8)

    def test_domain_errors(self):
        gas = continuum.ContinuumGas(n=10.0, t=1.0, eps0=1.0)
        with pytest.raises(DomainError):
            continuum.rho(0.5, gas, 5.0)  # below eps0
        with pytest.raises(DomainError):
            continuum.rho(6.0, gas, 5.0)  # above e1
        with pytest.raises(DomainError):
            continuum.rho(1.0, gas, 0.5)  # e1 below eps0

    @pytest.mark.parametrize("eps0", [5.0, 0.0])
    def test_curve_at_the_root_ends_in_underflow_zeros(self, eps0):
        # rho underflows to 0.0 past about eps0 + 745*T, far below the root
        gas = continuum.ContinuumGas(n=1000, t=1.0, eps0=eps0)
        e1 = continuum.solve_total_energy(gas)
        rho_vals = [continuum.rho(gas.eps0 + (e1 - gas.eps0) * j / 99, gas, e1)
                    for j in range(100)]
        positive = [r for r in rho_vals if r > 0]
        assert 1 < len(positive) < len(rho_vals)
        assert rho_vals[len(positive):] == [0.0] * (len(rho_vals) - len(positive))
        assert all(b < a for a, b in zip(positive, positive[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            continuum.ContinuumGas(n=0.0, t=1.0)
        with pytest.raises(ValueError):
            continuum.ContinuumGas(n=1.0, t=0.0)
        with pytest.raises(ValueError):
            continuum.ContinuumGas(n=1.0, t=1.0, eps0=-1.0)

    @pytest.mark.parametrize("n, t", [(math.inf, 1.0), (1e-320, math.inf), (1.0, math.nan)])
    def test_infinite_parameters_rejected(self, n, t):
        # t = inf once reached expm1(0) = 0 in the residual: a ZeroDivisionError
        with pytest.raises(ValueError, match="positive and finite"):
            continuum.ContinuumGas(n=n, t=t)

    @pytest.mark.parametrize("eps0", ["nan", "inf"])
    def test_non_finite_offset_named(self, eps0, capsys):
        # both used to reach the E1 bracket and end in a DomainError there
        with pytest.raises(ValueError, match="eps0 must be non-negative and finite"):
            continuum.ContinuumGas(n=5.0, t=1.0, eps0=float(eps0))
        assert cli.run(["gas", "solve", "--n", "5", "--t", "1", "--eps0", eps0]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": f"eps0 must be non-negative and finite, got {eps0}"}


class TestResidual:
    def test_matches_naive_formula(self):
        # independent evaluation of E1 - [N*T + N*eps0 - N*span/(exp(span/T)-1)]
        for n, t, eps0, e1 in [(10, 1.0, 0.0, 8.0), (50, 2.0, 1.0, 90.0),
                               (3, 0.5, 0.2, 2.0)]:
            gas = continuum.ContinuumGas(n=n, t=t, eps0=eps0)
            span = e1 - eps0
            naive = e1 - (n * t + n * eps0 - n * span / (math.exp(span / t) - 1))
            assert continuum.energy_residual(e1, gas) == pytest.approx(naive, rel=1e-9)

    def test_residual_consistent_with_quadrature(self):
        # residual(e1) = e1 - integral of eps * rho(eps) over the domain
        gas = continuum.ContinuumGas(n=20.0, t=1.5, eps0=0.5)
        e1 = 25.0
        total, _ = integrate.quad(
            lambda e: e * continuum.rho(e, gas, e1), gas.eps0, e1)
        assert continuum.energy_residual(e1, gas) == pytest.approx(
            e1 - total, rel=1e-10)

    @pytest.mark.parametrize("n", [2, 5, 10, 30])
    def test_closed_form_at_n_kt(self, n):
        # with eps0 = 0 and E1 = N*k*T, the residual collapses to
        # N^2 k T / (e^N - 1) exactly
        t = 1.0
        gas = continuum.ContinuumGas(n=float(n), t=t)
        expected = n * n * t / (math.exp(n) - 1.0)
        assert continuum.energy_residual(n * t, gas) == pytest.approx(
            expected, rel=1e-12)

    def test_closed_form_at_fixed_point(self):
        # at E1 = N*(kT + eps0) the residual is the pure tail term
        # N * (N*(eps0 + kT) - eps0) / (e^{(N*(eps0/kT + 1) - eps0/kT)} - 1)
        n, t, eps0 = 50.0, 1.0, 5.0
        gas = continuum.ContinuumGas(n=n, t=t, eps0=eps0)
        e1 = n * (t + eps0)
        span = e1 - eps0
        expected = n * span / math.expm1(span / t)
        assert continuum.energy_residual(e1, gas) == pytest.approx(
            expected, rel=1e-12, abs=1e-300)

    def test_large_n_residual_is_exponentially_small(self):
        for n in [20.0, 50.0, 100.0]:
            gas = continuum.ContinuumGas(n=n, t=1.0)
            r = continuum.energy_residual(n, gas)
            assert 0 < r <= 10.0 * n * n * math.exp(-n)


class TestSolve:
    def test_large_n_root_is_n_kt(self):
        gas = continuum.ContinuumGas(n=1000.0, t=1.0)
        e1 = continuum.solve_total_energy(gas)
        assert e1 == pytest.approx(1000.0, rel=1e-9)

    def test_offset_root_is_n_times_kt_plus_eps0(self):
        # the fixed point scales as N*(kT + eps0): the offset is paid once
        # per particle, not once per gas
        gas = continuum.ContinuumGas(n=1000.0, t=1.0, eps0=5.0)
        e1 = continuum.solve_total_energy(gas)
        assert e1 == pytest.approx(6000.0, rel=1e-9)

    def test_temperature_scaling(self):
        a = continuum.solve_total_energy(continuum.ContinuumGas(n=500.0, t=1.0))
        b = continuum.solve_total_energy(continuum.ContinuumGas(n=500.0, t=3.0))
        assert b == pytest.approx(3.0 * a, rel=1e-9)

    @pytest.mark.parametrize("n", [3.0, 10.0, 1000.0])
    def test_root_unique_by_sign_scan(self, n):
        # residual is negative below the root and positive above it;
        # scanning a wide grid must find exactly one sign change
        gas = continuum.ContinuumGas(n=n, t=1.0)
        root = continuum.solve_total_energy(gas)
        lo = gas.eps0 + 1e-6
        hi = 4.0 * n
        grid = [lo + (hi - lo) * j / 400 for j in range(401)]
        signs = [continuum.energy_residual(e, gas) > 0 for e in grid]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert changes == 1
        assert continuum.energy_residual(root * (1 - 1e-6), gas) < 0
        assert continuum.energy_residual(root * (1 + 1e-6), gas) > 0

    def test_residual_vanishes_at_root(self):
        gas = continuum.ContinuumGas(n=30.0, t=2.0, eps0=1.0)
        root = continuum.solve_total_energy(gas)
        assert abs(continuum.energy_residual(root, gas)) < 1e-8

    def test_small_n_has_no_root(self):
        # for one or two particles the mean energy never reaches E1
        for n in [1.0, 2.0]:
            with pytest.raises(NoConvergence):
                continuum.solve_total_energy(continuum.ContinuumGas(n=n, t=1.0))

    @pytest.mark.parametrize("n, t", [(5.0, 1e308), (1e300, 1e300), (1e154, 1e154)])
    def test_overflowing_bracket_is_a_domain_error(self, n, t):
        # N * (T + eps0) overflows: the bisection used to close on [lo, inf]
        # and return inf, or to halve [inf, inf] until its step cap
        with pytest.raises(DomainError, match="is not finite$"):
            continuum.solve_total_energy(continuum.ContinuumGas(n=n, t=t))

    def test_eps0_continuity_at_zero(self):
        # the root varies continuously as the ground offset goes to zero
        n = 100.0
        base = continuum.solve_total_energy(continuum.ContinuumGas(n=n, t=1.0))
        prev_gap = None
        for eps0 in [1e-2, 1e-4, 1e-6]:
            root = continuum.solve_total_energy(
                continuum.ContinuumGas(n=n, t=1.0, eps0=eps0))
            gap = abs(root - base)
            assert gap <= 2.0 * n * eps0
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap


class TestDiscreteContinuumBridge:
    def test_fit_converges_to_density(self):
        # a fine lattice with N = 1e6 and matched mean energy approaches the
        # continuum density; the residual error is the half-bin boundary
        # term in the discrete normalization, so it shrinks linearly with
        # the bin width
        n = 1_000_000
        t = 1.0
        e1 = float(n)  # large-N fixed point at T = 1
        top = 20.0 * t
        errors = []
        for m in [250, 1000]:
            delta = top / m
            e_units = int(round(n * t / delta))
            spec = ensemble.GasSpec(n=n, m=m, e_units=e_units, delta=delta)
            fit = ensemble.boltzmann_fit(spec)
            gas = continuum.ContinuumGas(n=float(n), t=1.0 / fit.beta)
            worst = 0.0
            for i in range(1, m // 2):
                eps = spec.energy(i)
                dens = fit.predicted[i] / delta
                ref = continuum.rho(eps, gas, e1)
                worst = max(worst, abs(dens - ref) / ref)
            errors.append(worst)
        assert errors[1] < errors[0] / 2  # quartering the bin width helps
        assert errors[1] < 0.02

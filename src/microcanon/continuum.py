"""Continuum-limit gas distributions and the temperature/total-energy link.

The particle density over energy on [eps0, E1] is

    rho(eps) = (N/T) * exp(-(eps - eps0)/T) / (1 - exp(-(E1 - eps0)/T))

in k = 1 units.  Integrating eps * rho(eps) over the domain and demanding it
equal E1 gives the self-consistency condition solved here.  The closed form
of that integral, derived directly (integration by parts) rather than
transcribed, is

    rhs(E1) = N*T + N*eps0 - N*(E1 - eps0) / (exp((E1 - eps0)/T) - 1)

so the residual E1 - rhs(E1) has a unique sign change above eps0 and the
physical total energy approaches N*(T + eps0) from below as N grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import roots
from .errors import DomainError, NoConvergence

# exp argument beyond which the expm1 tail term underflows to zero anyway
_EXP_CUTOFF = 700.0
E1_RTOL = 1e-12  # bracket width of the E1 root, relative to max(1, upper end)


@dataclass(frozen=True)
class ContinuumGas:
    """Continuum-limit parameters: particle count, temperature, ground offset."""

    n: float
    t: float
    eps0: float = 0.0

    def __post_init__(self):
        if not 0 < self.n < math.inf:
            raise ValueError(f"n must be positive and finite, got {self.n}")
        if not 0 < self.t < math.inf:
            raise ValueError(f"t must be positive and finite, got {self.t}")
        if not 0 <= self.eps0 < math.inf:
            raise ValueError(f"eps0 must be non-negative and finite, got {self.eps0}")


def rho(eps: float, gas: ContinuumGas, e1: float) -> float:
    """Particles per unit energy at eps, for total energy e1."""
    if e1 <= gas.eps0:
        raise DomainError(f"e1={e1} must exceed eps0={gas.eps0}")
    if eps < gas.eps0 or eps > e1:
        raise DomainError(f"eps={eps} outside [{gas.eps0}, {e1}]")
    span = (e1 - gas.eps0) / gas.t
    denom = -math.expm1(-span)
    return (gas.n / gas.t) * math.exp(-(eps - gas.eps0) / gas.t) / denom


def energy_residual(e1: float, gas: ContinuumGas) -> float:
    """E1 minus the total energy carried by rho at that E1.

    Grouped to cancel exactly at the large-N fixed point: the rhs integral
    equals N*(T + eps0) minus an exponentially small tail, so the residual
    is computed as (E1 - N*(T + eps0)) + tail.
    """
    if e1 <= gas.eps0:
        raise DomainError(f"e1={e1} must exceed eps0={gas.eps0}")
    span = e1 - gas.eps0
    x = span / gas.t
    tail = 0.0 if x > _EXP_CUTOFF else gas.n * span / math.expm1(x)
    return (e1 - gas.n * (gas.t + gas.eps0)) + tail


def solve_total_energy(gas: ContinuumGas) -> float:
    """Unique physical root of the energy self-consistency condition.

    The condition also holds trivially as E1 -> eps0 (empty domain), so the
    bracket starts strictly above eps0.
    """
    lo = gas.eps0 + max(1e-9, 1e-9 * gas.n * gas.t)
    if energy_residual(lo, gas) >= 0:
        # for N <= 2 the residual never goes negative above eps0: the mean
        # energy per particle is below T everywhere, so no physical root
        raise NoConvergence(f"residual non-negative at bracket start E1={lo} (n={gas.n}); "
                            "no physical root above eps0")
    hi = gas.eps0 + 2.0 * gas.n * (gas.t + gas.eps0)  # residual >= eps0 + N(T + eps0) > 0
    if not math.isfinite(lo + hi):  # so is every midpoint the bisection takes
        raise DomainError(f"E1 bracket [{lo}, {hi}] is not finite")
    lo, hi = roots.bisect(lambda e1: energy_residual(e1, gas) < 0, lo, hi,
                          lambda lo, hi: hi - lo <= E1_RTOL * max(1.0, abs(hi)))
    return 0.5 * (lo + hi)

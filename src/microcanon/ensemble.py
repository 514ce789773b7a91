"""Exact discrete micro-canonical statistics on an integer energy lattice.

A gas of N distinguishable particles occupies M energy bins at lattice
energies eps_i = (eps0_units + i) * delta.  A binning state is an occupancy
tuple {n_i} obeying the particle-number and total-energy constraints; its
multiplicity Omega = N! / prod(n_i!) counts the microstates it contains.
Everything here is exact (integer lattice, arbitrary-precision Omega) so
that enumeration-based oracles can check it bin by bin.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import roots
from .errors import DegenerateEnergy, DomainError, InfeasibleEnergy, NoConvergence, SizeLimit

DEFAULT_STATE_CAP = 1_000_000
BETA_TOL = 1e-14  # bracket width of the reduced beta = beta * delta
MAX_BINS = 10_000  # enumeration copies prefixes up to length m, so its cost grows as m^2
MAX_WALK_STEPS = 10 ** 9  # about 8 minutes of walk at 0.5 us per step
MAX_WALK_PARTICLES = 10 ** 7  # the walk's per-particle level list, about 80 MB
_CHUNK = 65_536  # random draws per numpy call in the walk

# Stirling variants for ln m! used in the variational solve.
STIRLING_MLNM = "m_ln_m"
STIRLING_MLNM_MINUS_M = "m_ln_m_minus_m"


@dataclass(frozen=True)
class GasSpec:
    """Problem instance: N particles, M bins, total energy in lattice units."""

    n: int
    m: int
    e_units: int
    delta: float = 1.0
    eps0_units: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one particle, got n={self.n}")
        if self.m < 1:
            raise ValueError(f"need at least one bin, got m={self.m}")
        if self.e_units < 0:
            raise ValueError(f"total energy must be non-negative, got {self.e_units}")
        if self.eps0_units < 0:
            raise ValueError(f"ground offset must be non-negative, got {self.eps0_units}")
        if not self.delta > 0:
            raise ValueError(f"lattice step must be positive, got {self.delta}")
        if self.delta == math.inf:
            raise ValueError(f"lattice step must be finite, got {self.delta}")
        try:
            top = self.energy(self.m - 1)
        except OverflowError:  # a bin index past the float range
            top = math.inf
        if top == math.inf:
            raise ValueError(f"top bin energy must be finite, got inf at lattice step {self.delta}")

    @property
    def excess_units(self) -> int:
        """Energy above the all-ground configuration, in lattice units."""
        return self.e_units - self.n * self.eps0_units

    @property
    def is_feasible(self) -> bool:
        return 0 <= self.excess_units <= self.n * (self.m - 1)

    def energy(self, i: int) -> float:
        """Energy of bin i (0-based)."""
        return (self.eps0_units + i) * self.delta

    @property
    def energies(self) -> np.ndarray:
        return (self.eps0_units + np.arange(self.m)) * self.delta

    @property
    def total_energy(self) -> float:
        return self.e_units * self.delta

    def require_feasible(self):
        if not self.is_feasible:
            raise InfeasibleEnergy(
                f"excess energy {self.excess_units} outside [0, {self.n * (self.m - 1)}] "
                f"for n={self.n}, m={self.m}"
            )


@dataclass(frozen=True)
class BoltzmannFit:
    """Lagrange-multiplier solution n_i = exp(-alpha) * exp(-beta * eps_i)."""

    alpha: float
    beta: float
    predicted: tuple[float, ...]
    stirling_variant: str = STIRLING_MLNM_MINUS_M


def enumerate_binnings(spec: GasSpec, max_states: int = DEFAULT_STATE_CAP) -> list[tuple[int, ...]]:
    """All occupancy vectors meeting both constraints, lexicographically.

    Raises InfeasibleEnergy if the lattice cannot carry the total energy and
    SizeLimit, before any work, for more than MAX_BINS bins, or once more
    than `max_states` vectors would be produced.
    """
    spec.require_feasible()
    if spec.m > MAX_BINS:
        raise SizeLimit(f"more than {MAX_BINS} bins")
    top = spec.m - 1
    if top == 0:
        return [(spec.n,)]

    def occupancies(i: int, rem_n: int, rem_e: int) -> range:
        # n_i that leave bins i+1..top able to carry the rest:
        # (i+1) * rest_n <= rest_e <= top * rest_n, so every branch yields states
        return range(max(0, (i + 1) * rem_n - rem_e),
                     min(rem_n, (top * rem_n - rem_e) // (top - i)) + 1)

    out: list[tuple[int, ...]] = []
    # Depth-first over n_0 .. n_{top-2} with an explicit stack, since m can
    # exceed the recursion limit; children are pushed in reverse so that
    # ascending occupancies come off first and the output is lexicographic.
    stack: list[tuple[tuple[int, ...], int, int]] = [((), spec.n, spec.excess_units)]
    while stack:
        prefix, rem_n, rem_e = stack.pop()
        i = len(prefix)
        choices = occupancies(i, rem_n, rem_e)
        if i + 1 < top:
            stack.extend((prefix + (ni,), rem_n - ni, rem_e - i * ni) for ni in reversed(choices))
            continue
        # bin top-1 takes each admissible occupancy and the last bin the rest
        if len(out) + len(choices) > max_states:
            raise SizeLimit(f"more than {max_states} binning states")
        out.extend(prefix + (ni, rem_n - ni) for ni in choices)
    return out


def multiplicity(n: tuple[int, ...]) -> int:
    """Omega = N! / prod(n_i!) exactly, N = sum(n), as a product of binomials C(rest, n_i)."""
    omega, rest = 1, sum(n)
    for x in n[:-1]:
        omega *= math.comb(rest, x)
        rest -= x
    return omega


def entropy(n: tuple[int, ...], k: float = 1.0) -> float:
    """S = k ln Omega, with ln Omega as a log-gamma sum."""
    if not k > 0:
        raise ValueError(f"k must be positive, got {k}")
    return k * (math.lgamma(sum(n) + 1) - sum(math.lgamma(x + 1) for x in n))


def most_probable_binnings(spec: GasSpec, max_states: int = DEFAULT_STATE_CAP) -> list[tuple[int, ...]]:
    """All argmax-Omega binning states (exact integer ties), lexicographic order."""
    states = enumerate_binnings(spec, max_states=max_states)
    omegas = [multiplicity(s) for s in states]
    best = max(omegas)
    return [s for s, omega in zip(states, omegas) if omega == best]


def _mean_index(b: float, m: int) -> float:
    """Mean bin index under weights exp(-b*i), i = 0..m-1, overflow-safe."""
    i = np.arange(m)
    x = -b * i
    x -= x.max()
    w = np.exp(x)
    return float((i * w).sum() / w.sum())


def _solve_reduced_beta(target: float, m: int) -> float:
    """Root of mean_index(b) = target by doubling [-1, 1], then bisection.

    mean_index is strictly decreasing in b, so the root is unique.
    """
    lo, hi = -1.0, 1.0
    for _ in range(roots.MAX_STEPS):
        if _mean_index(lo, m) < target:
            lo *= 2.0
        elif _mean_index(hi, m) > target:
            hi *= 2.0
        else:
            lo, hi = roots.bisect(lambda b: _mean_index(b, m) > target, lo, hi,
                                  lambda lo, hi: hi - lo <= BETA_TOL)
            return 0.5 * (lo + hi)
    raise NoConvergence(f"no sign change in b=[{lo}, {hi}]")


def _logsumexp(x: np.ndarray) -> float:
    c = x.max()
    return float(c + np.log(np.exp(x - c).sum()))


def boltzmann_fit(spec: GasSpec, stirling_variant: str = STIRLING_MLNM_MINUS_M) -> BoltzmannFit:
    """Fit n_i = exp(-alpha) exp(-beta eps_i) to both lattice constraints.

    alpha is eliminated by the particle-number constraint; beta is the root
    of the mean-energy residual, found by bracketed bisection.  The two
    Stirling variants change the stationarity condition only through a
    constant that alpha absorbs, so they must land on the same beta.
    """
    spec.require_feasible()
    excess = spec.excess_units
    if spec.m == 1 or excess == 0 or excess == spec.n * (spec.m - 1):
        raise DegenerateEnergy(
            f"mean excess {excess}/{spec.n} on the boundary of [0, {spec.m - 1}]; beta is infinite"
        )

    target = excess / spec.n
    b = _solve_reduced_beta(target, spec.m)
    beta = b / spec.delta
    # every energy sum below is at most N times the top bin energy
    if not (math.isfinite(beta) and math.isfinite(spec.n * spec.energy(spec.m - 1))):
        raise DomainError(f"beta or the bin energies overflow at lattice step {spec.delta}")

    eps = spec.energies
    # normalization constant via log-sum-exp; the variant shifts alpha only
    log_z = _logsumexp(-beta * eps)
    if stirling_variant == STIRLING_MLNM_MINUS_M:
        # stationarity ln n_i + alpha + beta eps_i = 0
        alpha = log_z - math.log(spec.n)
        predicted = spec.n * np.exp(-beta * eps - log_z)
    elif stirling_variant == STIRLING_MLNM:
        # stationarity ln n_i + 1 + alpha + beta eps_i = 0
        alpha = log_z - math.log(spec.n) - 1.0
        predicted = np.exp(-1.0 - alpha - beta * eps)
    else:
        raise ValueError(f"unknown Stirling variant {stirling_variant!r}")

    fit = BoltzmannFit(alpha=alpha, beta=beta, predicted=tuple(float(x) for x in predicted),
                       stirling_variant=stirling_variant)
    _check_fit(spec, fit)
    return fit


def _check_fit(spec: GasSpec, fit: BoltzmannFit, rtol: float = 1e-10):
    pred = np.asarray(fit.predicted)
    n_err = abs(pred.sum() - spec.n)
    e_err = abs(float(pred @ spec.energies) - spec.total_energy)
    if n_err > rtol * spec.n:
        raise NoConvergence(f"particle constraint off by {n_err}")
    if spec.total_energy > 0 and e_err > rtol * spec.total_energy:
        raise NoConvergence(f"energy constraint off by {e_err}")


def stirling_compare(spec: GasSpec) -> tuple[BoltzmannFit, BoltzmannFit]:
    """Run the variational solve under both Stirling variants."""
    return (
        boltzmann_fit(spec, stirling_variant=STIRLING_MLNM),
        boltzmann_fit(spec, stirling_variant=STIRLING_MLNM_MINUS_M),
    )


def _initial_microstate(spec: GasSpec) -> list[int]:
    """Deterministic feasible per-particle level assignment (0-based levels)."""
    levels = [0] * spec.n
    rem = spec.excess_units
    top = spec.m - 1
    for p in range(spec.n):
        take = min(top, rem)
        levels[p] = take
        rem -= take
        if rem == 0:
            break
    return levels


def sample_microstates(spec: GasSpec, steps: int, seed: int) -> dict[tuple[int, ...], int]:
    """Random walk over microstates; returns binning-state visit counts.

    A microstate is the vector of per-particle lattice levels summing to the
    excess energy.  Each step proposes moving one energy unit from a uniform
    donor to a uniform recipient and rejects moves leaving the lattice, a
    symmetric proposal whose stationary distribution is uniform over
    microstates.  The walk state after each of the `steps` proposals is
    tallied by its occupancy vector.  Fixed seed means fixed output.
    Memory is O(_CHUNK) whatever `steps` is; more than MAX_WALK_STEPS steps
    raise SizeLimit before any draw, and more than MAX_WALK_PARTICLES
    particles before the O(N) level list is built.
    """
    spec.require_feasible()
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    if steps > MAX_WALK_STEPS:
        raise SizeLimit(f"more than {MAX_WALK_STEPS} walk steps")
    if spec.n > MAX_WALK_PARTICLES:
        raise SizeLimit(f"more than {MAX_WALK_PARTICLES} walk particles")

    levels = _initial_microstate(spec)
    occ = [0] * spec.m
    for level in levels:
        occ[level] += 1
    top = spec.m - 1

    # Donors are the generator's first `steps` draws and recipients the next
    # `steps`.  A copy of the generator skips the donors in one discard pass,
    # so that both streams are read a chunk at a time.
    chunks = [min(_CHUNK, steps - start) for start in range(0, steps, _CHUNK)]
    donor_rng = np.random.default_rng(seed)
    recip_rng = copy.deepcopy(donor_rng)
    for size in chunks:
        recip_rng.integers(0, spec.n, size=size)

    counts: dict[tuple[int, ...], int] = {}
    key = tuple(occ)
    for size in chunks:
        for d, r in zip(donor_rng.integers(0, spec.n, size=size).tolist(),
                        recip_rng.integers(0, spec.n, size=size).tolist()):
            ld, lr = levels[d], levels[r]
            if d != r and ld > 0 and lr < top:
                occ[ld] -= 1
                occ[ld - 1] += 1
                occ[lr] -= 1
                occ[lr + 1] += 1
                levels[d] = ld - 1
                levels[r] = lr + 1
                key = tuple(occ)
            counts[key] = counts.get(key, 0) + 1
    return counts


def frequencies(counts: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], float]:
    """Normalize visit counts to relative frequencies."""
    total = sum(counts.values())
    return {k: v / total for k, v in counts.items()}

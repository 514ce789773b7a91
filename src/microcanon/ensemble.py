"""Exact discrete micro-canonical statistics on an integer energy lattice.

A gas of N distinguishable particles occupies M energy bins at lattice
energies eps_i = (eps0_units + i) * delta.  A binning state is an occupancy
tuple {n_i} obeying the particle-number and total-energy constraints; its
multiplicity Omega = N! / prod(n_i!) counts the microstates it contains.
Everything here is exact (integer lattice, arbitrary-precision Omega) so
that enumeration-based oracles can check it bin by bin.

numpy is imported only inside the microstate walk, for its random
generator.  The Boltzmann fit sums its m weights with math.exp and builtin
sums, so every other function, the argmax search (which starts from the
fit) included, runs without it.
"""

from __future__ import annotations

import copy
import math
import struct
from collections import Counter, deque
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import roots
from .errors import DegenerateEnergy, DomainError, InfeasibleEnergy, NoConvergence, SizeLimit

DEFAULT_STATE_CAP = 1_000_000
BETA_TOL = 1e-14  # bracket width of the reduced beta = beta * delta
FIT_RTOL = 1e-10  # relative error the fit may leave in either constraint
MAX_BINS = 10_000  # enumeration keeps a stack m deep; it and the microstate walk build m-tuples
MAX_EXACT_PARTICLES = 20_000  # counting core; its longest recurrence at the default cap, m = 3 and E = N, takes 0.4 s
# Recurrence steps times the bits of its coefficients, at 0.55-0.75 ns each:
# about 0.7 s.  The largest call the default cap admits, (N, m, E) =
# (20000, 3, 20000), is 6.3e8.
MAX_RECURRENCE_STEP_BITS = 10 ** 9
MAX_WALK_STEPS = 10 ** 9  # about 8 minutes of walk at 0.47 us per step (n = 18, m = 5)
MAX_WALK_PARTICLES = 10 ** 7  # the walk's per-particle level list, about 80 MB
_CHUNK = 65_536  # random draws per numpy call in the walk
_FIELD_TABLE_BITS = 2048  # the walk's table of occupancy fields, at most 48 KiB

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
    def energies(self) -> tuple[float, ...]:
        return tuple(map(self.energy, range(self.m)))

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


def _sole_tail(top: int, i: int, rem_n: int, rem_e: int) -> tuple[int, ...] | None:
    """Occupancies of bins i..top when rem_n particles with excess rem_e fit
    them in one way only: at most two bins, at most one particle, or all
    particles in bin i or in bin top.  Otherwise None."""
    span = top - i
    if span == 0:
        return (rem_n,)
    if span == 1 or rem_e in (i * rem_n, top * rem_n):
        high = (rem_e - i * rem_n) // span          # particles in bin top
        return (rem_n - high,) + (0,) * (span - 1) + (high,)
    if rem_n == 1:
        return (0,) * (rem_e - i) + (1,) + (0,) * (top - rem_e)
    return None


def _occupancies(top: int, i: int, rem_n: int, rem_e: int) -> range:
    """n_i that leave bins i+1..top able to carry the rest.

    (i+1) * rest_n <= rest_e <= top * rest_n, so every branch yields states.
    """
    return range(max(0, (i + 1) * rem_n - rem_e),
                 min(rem_n, (top * rem_n - rem_e) // (top - i)) + 1)


def _last_free_ranges(spec: GasSpec):
    """Yield (prefix, low, mid, choices) for m >= 3, lexicographically.

    Each k in choices completes the prefix (n_0 .. n_{m-4}) to the binning
    prefix + (k, mid - 2k, low + k): n_{m-3} = k fixes the last two bins by
    the two constraints.  The walk is a stack of range iterators, O(m)
    memory whatever the count.  A node whose remaining bins admit one
    occupancy only (_sole_tail) is yielded as that one binning, not
    descended.  The prefix list is live and changes after the next step.
    """
    top, last = spec.m - 1, spec.m - 3

    def frontier(rem_n: int, rem_e: int):
        return (rem_e - (last + 1) * rem_n, (last + 2) * rem_n - rem_e,
                _occupancies(top, last, rem_n, rem_e))

    prefix: list[int] = []
    if last == 0:
        yield (prefix, *frontier(spec.n, spec.excess_units))
        return
    rems = [(spec.n, spec.excess_units)]
    stack = [iter(_occupancies(top, 0, spec.n, spec.excess_units))]
    while stack:
        i = len(stack) - 1
        ni = next(stack[i], None)
        if ni is None:
            stack.pop()
            rems.pop()
            if prefix:
                prefix.pop()
            continue
        rem_n, rem_e = rems[i][0] - ni, rems[i][1] - i * ni
        prefix.append(ni)
        rest = _sole_tail(top, i + 1, rem_n, rem_e) if i + 1 < last else None
        if rest is not None:
            k, n_mid, n_top = rest[-3:]
            prefix.extend(rest[:-3])
            yield prefix, n_top - k, n_mid + 2 * k, range(k, k + 1)
            del prefix[i:]
        elif i + 1 == last:
            yield (prefix, *frontier(rem_n, rem_e))
            prefix.pop()
        else:
            rems.append((rem_n, rem_e))
            stack.append(iter(_occupancies(top, i + 1, rem_n, rem_e)))


def _binning_count(spec: GasSpec, cap: int) -> int:
    """Number of binnings, or a lower bound on it once that passes `cap`.

    Binnings are the partitions of the excess that fit an a x b box, (a, b)
    = sorted((N, m-1)), counted by the Gaussian binomial [a+b choose a]_q.
    Its coefficients are symmetric and unimodal (Sylvester), so the count
    at E equals the count at e = min(E, ab-E) and is at least the count at
    d = min(e, b), which is p_a(d), the partitions of d into parts of at
    most a.  One pass adds part sizes k = 1, 2, ... up to degree d and stops
    once p_k(d) passes the cap.  At e > b, reached only when p_a(b) is
    within the cap, a second pass runs to degree e and multiplies by
    (1 - q^j) for b < j <= a+b.
    """
    a, b = sorted((spec.n, spec.m - 1))
    e = min(spec.excess_units, a * b - spec.excess_units)

    for degree, stop in ((min(e, b), cap), (e, math.inf)):
        poly = [1] + [0] * degree  # p_k(0..degree) for k = 1, 2, ..., min(a, degree)
        for k in range(1, min(a, degree) + 1):
            for d in range(k, degree + 1):
                poly[d] += poly[d - k]
            if poly[degree] > stop:
                return poly[degree]
        if degree == e:  # e <= b: the first pass reached e
            break
    for j in range(b + 1, min(a + b, e) + 1):  # none when e <= b
        for d in range(e, j - 1, -1):
            poly[d] -= poly[d - j]
    return poly[e]


def _require_exact(spec: GasSpec):
    """InfeasibleEnergy, then SizeLimit past MAX_BINS bins and past MAX_EXACT_PARTICLES particles."""
    spec.require_feasible()
    if spec.m > MAX_BINS:
        raise SizeLimit(f"more than {MAX_BINS} bins")
    if spec.n > MAX_EXACT_PARTICLES:
        raise SizeLimit(f"more than {MAX_EXACT_PARTICLES} particles")


def _require_countable(spec: GasSpec, max_states: int) -> int | None:
    """_require_exact's guards, then SizeLimit past `max_states` binnings.

    No count runs while C(N+m-1, m-1), the number of occupancy vectors with
    the energy ignored, is within the cap; else _binning_count decides it,
    listing no binning.  Returns the count when the cap needed it, else None.
    """
    _require_exact(spec)
    if math.comb(spec.n + spec.m - 1, spec.m - 1) <= max_states:
        return None
    count = _binning_count(spec, max_states)
    if count > max_states:
        raise SizeLimit(f"more than {max_states} binning states")
    return count


def count_binnings(spec: GasSpec, max_states: int = DEFAULT_STATE_CAP) -> int:
    """Number of binning states, counted without building one.

    Guards as for enumerate_binnings, so it raises or succeeds where
    enumeration does and then equals len(enumerate_binnings(spec)).  It
    counts once: in the guard when the cap needs the count, else here.
    """
    count = _require_countable(spec, max_states)
    return _binning_count(spec, max_states) if count is None else count


def enumerate_binnings(spec: GasSpec, max_states: int = DEFAULT_STATE_CAP) -> list[tuple[int, ...]]:
    """All occupancy vectors meeting both constraints, lexicographically.

    _require_countable's guards raise InfeasibleEnergy or SizeLimit before
    any vector is built; the binning cap is decided by a count, not a walk.
    """
    _require_countable(spec, max_states)
    sole = _sole_tail(spec.m - 1, 0, spec.n, spec.excess_units)
    if sole is not None:
        return [sole]
    out: list[tuple[int, ...]] = []
    for prefix, low, mid, choices in _last_free_ranges(spec):
        head = tuple(prefix)
        out.extend(head + (k, mid - 2 * k, low + k) for k in choices)
    return out


def _binomial_product(n: tuple[int, ...], rest: int) -> int:
    """Omega = prod_i C(rest_i, n_i), rest_0 = N and each rest_i less by n_i."""
    omega = 1
    for x in n[:-1]:
        omega *= math.comb(rest, x)
        rest -= x
    return omega


def multiplicity(n: tuple[int, ...]) -> int:
    """Omega = N! / prod(n_i!) exactly, N = sum(n), as a product of binomials C(rest, n_i)."""
    return _binomial_product(n, sum(n))


def entropy(n: tuple[int, ...], k: float = 1.0) -> float:
    """S = k ln Omega, with ln Omega as a log-gamma sum."""
    if not k > 0:
        raise ValueError(f"k must be positive, got {k}")
    return k * (math.lgamma(sum(n) + 1) - sum(math.lgamma(x + 1) for x in n))


def multiplicities(states: Sequence[tuple[int, ...]]) -> tuple[list[int], list[float]]:
    """Omega and ln Omega of each binning in a list of binnings of one N.

    A binning equal to the one before it with its last three bins (k, b, c)
    moved by (+1, -2, +1), as within each range of _last_free_ranges, takes
    Omega_prev * b (b - 1) // ((k + 1)(c + 1)): one product, one exact
    division.  Any other takes multiplicity's product of binomials.  ln Omega
    = lgamma(N + 1) - sum of lgamma(n_i + 1), read from a table built once
    and added in entropy's order, so it equals entropy(s) bit for bit.
    (N! // prod(n_i!) costs three times as much at N = 20,000, where the long
    division dominates; a factorial table to that N would hold 300 MB.)
    """
    if not states:
        return [], []
    n = sum(states[0])
    lg = [math.lgamma(k + 1) for k in range(n + 1)]
    omegas: list[int] = []
    for prev, s in zip((states[0], *states), states):
        k, b, c = prev[-3:] if len(prev) == len(s) > 2 else (-1, 0, 0)
        if s[-3:] == (k + 1, b - 2, c + 1) and s[:-3] == prev[:-3]:
            omegas.append(omegas[-1] * b * (b - 1) // ((k + 1) * (c + 1)))
        else:
            omegas.append(_binomial_product(s, n))
    return omegas, [lg[n] - sum(map(lg.__getitem__, s)) for s in states]


def _power_coefficients(n: int, m: int, degree: int) -> list[int]:
    """[x^j] G^(n-1) for j = degree-m+1 .. degree, zero below j = 0.

    The coefficients c_j follow from J.C.P. Miller's recurrence for a power
    of a series, j c_j = sum_{i=1}^{m-1} (n i - j) c_{j-i}, whose division
    is exact.  The sum is carried as two sliding sums over the last m-1
    coefficients, sum c_{j-i} and sum i c_{j-i}, so each degree costs a few
    big-int operations whatever m is.
    """
    window = deque([1], maxlen=m)      # c_{j-m} .. c_{j-1}, once j >= m
    s0 = s1 = 0                        # sum c_{j-i} and sum i c_{j-i}, i = 1..m-1
    for j in range(1, degree + 1):
        newest = window[-1]
        dropped = window[0] if len(window) == m else 0
        s1 += s0 + newest - m * dropped
        s0 += newest - dropped
        window.append((n * s1 - j * s0) // j)
    return [0] * (m - len(window)) + list(window)


def _tagged_counts(spec: GasSpec) -> list[int]:
    """[x^(E-i)] G^(N-1) for i = 0..m-1, with G = 1 + x + ... + x^(m-1) and E the excess.

    Entry i counts the microstates of the other N-1 particles when a tagged
    one sits in bin i; the entries sum to [x^E] G^N = sum Omega.  G^(N-1) is
    palindromic, c_j = c_{D-j} with D = (N-1)(m-1), so the recurrence runs
    from whichever end is nearer: to degree E, or to degree D-E+m-1 and read
    c_{D-E+i}.  Its length is at most N(m-1)/2 + m, at the middle energy.
    Each step costs about the bits of a coefficient, at most (N-1) log2 m,
    so past MAX_RECURRENCE_STEP_BITS it raises SizeLimit before the first.
    """
    n, m, e = spec.n, spec.m, spec.excess_units
    mirror = (n - 1) * (m - 1) - e     # c_{E-i} = c_{mirror+i}
    if min(e, mirror + m - 1) * (n - 1) * math.log2(m) > MAX_RECURRENCE_STEP_BITS:
        raise SizeLimit(f"more than {MAX_RECURRENCE_STEP_BITS} recurrence step-bits")
    if e <= mirror + m - 1:
        return _power_coefficients(n, m, e)[::-1]
    return _power_coefficients(n, m, mirror + m - 1)


def tagged_law(spec: GasSpec, max_states: int = DEFAULT_STATE_CAP) -> tuple[Fraction, ...]:
    """P(tagged particle in bin i) = [x^(E-i)] G^(N-1) / [x^E] G^N, exact, i = 0..m-1.

    The Einstein-solid count: uniform microstates, counted without listing
    a binning, in its guards too.  Guards as for enumerate_binnings, so it
    raises or succeeds where enumeration does.
    """
    _require_countable(spec, max_states)
    counts = _tagged_counts(spec)
    total = sum(counts)
    return tuple(Fraction(c, total) for c in counts)


def total_multiplicity(spec: GasSpec) -> int:
    """sum Omega over every binning = [x^E] G^N, the number of microstates.

    Guards as _require_exact, without the binning cap.
    """
    _require_exact(spec)
    return sum(_tagged_counts(spec))


def most_probable_binnings(spec: GasSpec, max_states: int = DEFAULT_STATE_CAP) -> list[tuple[int, ...]]:
    """All argmax-Omega binning states (exact integer ties), lexicographic order.

    A depth-first branch and bound over n_0 .. n_{m-3}; the last two bins
    follow from the constraints.  With the Boltzmann fit's multipliers
    (a, b) in lattice units, any bins i..m-1 holding r particles with
    excess x have sum ln n_j! >= sum_{j>=i} h_j - a r - b x, where
    h_j = min_{0<=k<=N} ln k! + (a + b j) k (a Lagrangian bound).  A branch
    whose bound passes the incumbent by more than float error is pruned.
    Each level's bound is convex in its occupancy, so children are visited
    outward from the fitted occupancy and a side stops at the first rising
    child past the incumbent.  A node whose remaining bins admit one
    occupancy is a leaf.  Leaves compare the exact prod n_j!, so ties are
    kept.  Guards as for enumerate_binnings.
    """
    _require_countable(spec, max_states)
    sole = _sole_tail(spec.m - 1, 0, spec.n, spec.excess_units)
    if sole is not None:
        return [sole]
    n, m, x = spec.n, spec.m, spec.excess_units
    # unit step and no offset: alpha and beta multiply n_j and j n_j, whatever spec.delta is
    fit = boltzmann_fit(GasSpec(n=n, m=m, e_units=x))
    a, b = fit.alpha, fit.beta
    top, last = m - 1, m - 3

    def lnf(k: int) -> float:
        return math.lgamma(k + 1)

    # the fit's occupancy exp(-a - b j) per bin, the minimiser of ln k! + (a + b j) k
    fitted = [n if -a - b * j >= math.log(n + 1) else int(math.exp(-a - b * j))
              for j in range(m)]
    h = [min(lnf(k) + (a + b * j) * k for k in (f - 1, f, f + 1) if 0 <= k <= n)
         for j, f in enumerate(fitted)]
    tail = [0.0] * (m + 1)             # tail[i] = sum_{j >= i} h_j
    for j in range(m - 1, -1, -1):
        tail[j] = tail[j + 1] + h[j]
    # float error of any sum here is far below 1e-9 of its largest term
    slack = 1e-9 * (1.0 + lnf(n) + abs(a) * n + abs(b) * x + sum(map(abs, h)))

    found: list[tuple[int, ...]] = []
    best_sum, best_exact = math.inf, None   # the incumbent's float sum ln n_j! and exact prod n_j!

    def limit() -> float:
        return best_sum + slack

    def children(i: int, rem_n: int, rem_e: int, partial: float):
        """Below the last free bin, (n_i, the child node) in visiting order;
        at it, (its three bins, their float sum ln n_j!)."""
        choices = _occupancies(top, i, rem_n, rem_e)
        if i < last:
            c, rest = a + b * i, tail[i + 1] - a * rem_n - b * rem_e
            kids = _outward(lambda k: partial + lnf(k) + c * k + rest, choices, fitted[i], limit)
            return ((k, (i + 1, rem_n - k, rem_e - i * k, partial + lnf(k))) for k, _ in kids)
        low, mid = rem_e - (last + 1) * rem_n, (last + 2) * rem_n - rem_e
        leaves = _outward(lambda k: partial + lnf(k) + lnf(mid - 2 * k) + lnf(low + k),
                          choices, fitted[i], limit)
        return (((k, mid - 2 * k, low + k), value) for k, value in leaves)

    prefix: list[int] = []
    stack = [children(0, n, x, 0.0)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if prefix:
                prefix.pop()
            continue
        if len(stack) <= last:
            k, (i, rem_n, rem_e, partial) = step
            rest = _sole_tail(top, i, rem_n, rem_e)
            if rest is None:
                prefix.append(k)
                stack.append(children(i, rem_n, rem_e, partial))
                continue
            state, value = (*prefix, k, *rest), partial + sum(map(lnf, rest))
        else:
            state, value = (*prefix, *step[0]), step[1]
        if value > limit():
            continue
        exact = math.prod(map(math.factorial, state))
        if best_exact is None or exact < best_exact:
            best_sum, best_exact, found = value, exact, [state]
        elif exact == best_exact:
            found.append(state)
    return sorted(found)


def _outward(score, choices: range, start: int, limit):
    """Yield (k, score(k)) for k in choices with score(k) <= limit(), from start outward.

    score is convex, so each side (upward first) stops at the first k whose
    score rose and passed the limit; limit() is read afresh at every k.
    """
    if not choices:
        return
    start = min(max(start, choices.start), choices.stop - 1)
    first = score(start)
    for ks, prev in ((range(start, choices.stop), math.inf),
                     (range(start - 1, choices.start - 1, -1), first)):
        for k in ks:
            value = first if k == start else score(k)
            if value <= limit():
                yield k, value
            elif value >= prev:
                break
            prev = value


def _mean_index(b: float, m: int) -> float:
    """Mean bin index under weights exp(-b*i), i = 0..m-1, overflow-safe.

    Weights are taken relative to the largest, at i = 0 or m-1, and summed
    outward from it up to the first that underflows to 0.0, as all after it do.
    """
    order = range(m) if b >= 0 else range(m - 1, -1, -1)
    total = weighted = 0.0
    for i in order:
        w = math.exp(-b * (i - order[0]))
        if w == 0.0:
            break
        total += w
        weighted += i * w
    return weighted / total


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
    top = max(-beta * e for e in eps)
    log_z = top + math.log(sum(math.exp(-beta * e - top) for e in eps))
    if stirling_variant == STIRLING_MLNM_MINUS_M:
        # stationarity ln n_i + alpha + beta eps_i = 0
        alpha = log_z - math.log(spec.n)
        predicted = tuple(spec.n * math.exp(-beta * e - log_z) for e in eps)
    elif stirling_variant == STIRLING_MLNM:
        # stationarity ln n_i + 1 + alpha + beta eps_i = 0
        alpha = log_z - math.log(spec.n) - 1.0
        predicted = tuple(math.exp(-1.0 - alpha - beta * e) for e in eps)
    else:
        raise ValueError(f"unknown Stirling variant {stirling_variant!r}")

    fit = BoltzmannFit(alpha=alpha, beta=beta, predicted=predicted,
                       stirling_variant=stirling_variant)
    _check_fit(spec, fit)
    return fit


def _check_fit(spec: GasSpec, fit: BoltzmannFit):
    n_err = abs(sum(fit.predicted) - spec.n)
    e_err = abs(sum(p * e for p, e in zip(fit.predicted, spec.energies)) - spec.total_energy)
    if n_err > FIT_RTOL * spec.n:
        raise NoConvergence(f"particle constraint off by {n_err}")
    if spec.total_energy > 0 and e_err > FIT_RTOL * spec.total_energy:
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

    The binning is kept as one int whose fields of `width` bytes (1, 2 or 4,
    wide enough for N) are the occupancies, little-endian by bin, so an
    accepted move adds one field difference to it and no step builds or
    hashes a tuple.  Visits are tallied as run lengths: the dict is touched
    on accepted moves only, and each distinct binning is unpacked into its
    tuple once, at the end.  Memory is O(_CHUNK) plus O(m * width) bytes
    per visited binning, whatever `steps` is.  More than MAX_BINS bins (as
    in enumeration) or MAX_WALK_STEPS steps raise SizeLimit before any
    draw, and more than MAX_WALK_PARTICLES particles before the O(N) level
    list is built.
    """
    import numpy as np
    spec.require_feasible()
    if spec.m > MAX_BINS:
        raise SizeLimit(f"more than {MAX_BINS} bins")
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    if steps > MAX_WALK_STEPS:
        raise SizeLimit(f"more than {MAX_WALK_STEPS} walk steps")
    if spec.n > MAX_WALK_PARTICLES:
        raise SizeLimit(f"more than {MAX_WALK_PARTICLES} walk particles")

    levels = _initial_microstate(spec)
    n, top = spec.n, spec.m - 1
    width = 1 if n < 1 << 8 else 2 if n < 1 << 16 else 4
    bits = 8 * width
    code = sum(count << bits * level for level, count in Counter(levels).items())
    # Bin l's field starts at bit bits*l, so a particle going from level l
    # to l + 1 adds unit << bits*l to the code.  The table holds that step
    # for the levels whose field fits in _FIELD_TABLE_BITS and higher ones
    # are shifted on the fly, so the table does not grow with m.
    unit = (1 << bits) - 1
    fields = [unit << bits * level for level in range(min(spec.m, _FIELD_TABLE_BITS // bits))]
    low = len(fields)

    # Donors are the generator's first `steps` draws and recipients the next
    # `steps`.  A copy of the generator skips the donors in one discard pass,
    # so that both streams are read a chunk at a time.
    chunks = [min(_CHUNK, steps - start) for start in range(0, steps, _CHUNK)]
    donor_rng = np.random.default_rng(seed)
    recip_rng = copy.deepcopy(donor_rng)
    for size in chunks:
        recip_rng.integers(0, n, size=size)

    counts: dict[int, int] = {}
    run = 0  # steps tallied to `code` since the last accepted move
    for size in chunks:
        for d, r in zip(donor_rng.integers(0, n, size=size).tolist(),
                        recip_rng.integers(0, n, size=size).tolist()):
            ld, lr = levels[d], levels[r]
            if d != r and ld > 0 and lr < top:
                levels[d] = ld - 1
                levels[r] = lr + 1
                counts[code] = counts.get(code, 0) + run
                run = 1
                if lr < low and ld <= low:
                    code += fields[lr] - fields[ld - 1]
                else:
                    code += (unit << bits * lr) - (unit << bits * (ld - 1))
            else:
                run += 1
    counts[code] = counts.get(code, 0) + run

    # Unpack each binning once; the start binning's run is zero when the
    # first step moved.
    unpack = struct.Struct(f"<{spec.m}{'BHI'[width // 2]}").unpack
    nbytes = width * spec.m
    return {unpack(key.to_bytes(nbytes, "little")): count for key, count in counts.items() if count}


def frequencies(counts: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], float]:
    """Normalize visit counts to relative frequencies."""
    total = sum(counts.values())
    return {k: v / total for k, v in counts.items()}


def walk_tv(spec: GasSpec, counts: dict[tuple[int, ...], int]) -> float:
    """Total-variation distance between walk visit counts and the exact law Omega_b / sum Omega.

    1/2 (sum_visited |f_b - Omega_b/sum Omega| + 1 - sum_visited Omega_b/sum Omega),
    with sum Omega from the counting recurrence and Omega only for the
    visited binnings.  Summed over a common denominator in integers, so the
    float is the correctly rounded exact distance.
    """
    total = total_multiplicity(spec)
    steps = sum(counts.values())
    omegas = dict(zip(counts, multiplicities(tuple(counts))[0]))
    gap = sum(abs(c * total - omegas[b] * steps) for b, c in counts.items())
    return (gap + (total - sum(omegas.values())) * steps) / (2 * steps * total)

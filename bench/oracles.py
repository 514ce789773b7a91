"""Independent oracles for the benchmark's output checks.

Nothing here imports microcanon: every expected value is computed from the
definitions, with Python integers and Fractions where the program promises
exact results, and with scipy quadrature and root finding where it
promises floats.

Notation: N distinguishable particles on M bins with excess energies
0..M-1 (lattice units above the ground offset) and total excess E.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def level_powers(n: int, m: int, e: int) -> list[list[int]]:
    """Coefficients of G(x)^k for k = 0..n, G = 1 + x + ... + x^(m-1).

    Row k holds [x^0] .. [x^e] of G^k: the number of microstates of k
    particles at each excess energy up to e.
    """
    rows = [[1] + [0] * e]
    for _ in range(n):
        prev = rows[-1]
        cur = [0] * (e + 1)
        window = 0
        for j in range(e + 1):
            # cur[j] = prev[j] + prev[j-1] + ... + prev[j-m+1]
            window += prev[j]
            if j >= m:
                window -= prev[j - m]
            cur[j] = window
        rows.append(cur)
    return rows


def total_microstates(n: int, m: int, e: int) -> int:
    """Sum of Omega over every binning state: [x^e] G^n."""
    if not 0 <= e <= n * (m - 1):
        return 0
    return level_powers(n, m, e)[n][e]


def tagged_law(n: int, m: int, e: int) -> list[Fraction]:
    """P(tagged particle in bin i) = [x^(e-i)] G^(n-1) / [x^e] G^n."""
    rows = level_powers(n, m, e)
    total = rows[n][e]
    rest = rows[n - 1]
    return [Fraction(rest[e - i] if e - i >= 0 else 0, total) for i in range(m)]


def binning_count(n: int, m: int, e: int) -> int:
    """Number of occupancy vectors with sum n and energy e.

    A binning is a multiset of n levels in 0..m-1 summing to e, i.e. a
    partition of e into at most n parts of size at most m-1.  Those are
    counted by the Gaussian binomial [n+m-1 choose m-1]_q, expanded here as
    prod_{j=1}^{m-1} (1 - q^(n+j)) / (1 - q^j), truncated at degree e.
    """
    if not 0 <= e <= n * (m - 1):
        return 0
    poly = [1] + [0] * e
    for j in range(1, m):
        for d in range(e, n + j - 1, -1):      # multiply by 1 - q^(n+j)
            poly[d] -= poly[d - n - j]
        for d in range(j, e + 1):              # divide by 1 - q^j
            poly[d] += poly[d - j]
    return poly[e]


def omega(occ: tuple[int, ...]) -> int:
    """N! / prod(n_i!)."""
    out = math.factorial(sum(occ))
    for k in occ:
        out //= math.factorial(k)
    return out


def is_binning(occ: tuple[int, ...], n: int, m: int, e: int) -> bool:
    return (len(occ) == m and all(k >= 0 for k in occ) and sum(occ) == n
            and sum(i * k for i, k in enumerate(occ)) == e)


def argmax_binnings(n: int, m: int, e: int) -> list[tuple[int, ...]]:
    """Every binning of maximal Omega, by exact search over bins.

    best(i, r, x) is the least prod k_j! over bins i..m-1 holding r
    particles with excess x, together with every tail that attains it, so
    ties are kept exactly.  Sorted lexicographically.
    """
    fact = [math.factorial(k) for k in range(n + 1)]

    @lru_cache(maxsize=None)
    def best(i: int, r: int, x: int):
        if i == m - 1:
            return (fact[r], ((r,),)) if x == i * r else None
        top = None
        tails: list[tuple[int, ...]] = []
        for k in range(r + 1):
            rr, xx = r - k, x - i * k
            if xx < 0:
                break
            if not (i + 1) * rr <= xx <= (m - 1) * rr:
                continue
            sub = best(i + 1, rr, xx)
            if sub is None:
                continue
            val = fact[k] * sub[0]
            if top is None or val < top:
                top, tails = val, [(k,) + t for t in sub[1]]
            elif val == top:
                tails.extend((k,) + t for t in sub[1])
        return None if top is None else (top, tuple(tails))

    found = best(0, n, e)
    return sorted(found[1]) if found else []


def all_binnings(n: int, m: int, e: int) -> list[tuple[int, ...]]:
    """Every occupancy vector, for small sizes (walk laws and tests)."""
    out: list[tuple[int, ...]] = []

    def rec(i: int, r: int, x: int, prefix: tuple[int, ...]):
        if i == m - 1:
            if x == i * r:
                out.append(prefix + (r,))
            return
        for k in range(r + 1):
            if x - i * k < 0:
                break
            rec(i + 1, r - k, x - i * k, prefix + (k,))

    rec(0, n, e, ())
    return out


def binning_law(n: int, m: int, e: int) -> dict[tuple[int, ...], Fraction]:
    """Uniform microstates pushed to binnings: Omega(b) / sum Omega."""
    total = total_microstates(n, m, e)
    return {b: Fraction(omega(b), total) for b in all_binnings(n, m, e)}


def fit_beta(n: int, m: int, e: int, delta: float) -> float:
    """beta of n_i ~ exp(-beta eps_i) meeting both lattice constraints.

    With y = exp(-beta delta) the energy constraint is the polynomial
    sum_i (i - e/n) y^i = 0, which has one positive root (one sign change
    in its coefficients); it is bracketed and solved with brentq.
    """
    from scipy.optimize import brentq

    t = e / n

    def f(y: float) -> float:
        return sum((i - t) * y ** i for i in range(m))

    lo, hi = 1.0, 1.0
    while f(lo) > 0:
        lo /= 2.0
    while f(hi) < 0:
        hi *= 2.0
    y = brentq(f, lo, hi, xtol=1e-300, rtol=4 * 2.0 ** -52, maxiter=500)
    return -math.log(y) / delta


def continuum_moments(n: float, t: float, eps0: float, e1: float) -> tuple[float, float]:
    """(particles, energy) carried by rho on [eps0, e1], by quadrature.

    rho(eps) = (n/t) exp(-(eps - eps0)/t) / (1 - exp(-(e1 - eps0)/t)).
    The interval is cut where the integrand has decayed below double
    precision, so quad sees the whole shape of the integrand.
    """
    from scipy.integrate import quad

    norm = (n / t) / -math.expm1(-(e1 - eps0) / t)

    def rho(eps: float) -> float:
        return norm * math.exp(-(eps - eps0) / t)

    cut = min(e1, eps0 + 800.0 * t)
    pieces = [eps0, min(cut, eps0 + 40.0 * t), cut]
    mass = energy = 0.0
    for a, b in zip(pieces, pieces[1:]):
        if b > a:
            mass += quad(rho, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            energy += quad(lambda x: x * rho(x), a, b, epsabs=0.0,
                           epsrel=1e-13, limit=200)[0]
    return mass, energy


def no_go_value(q: float) -> float:
    """Least worst forbidden-outcome probability at overlap q: q^2 / 4."""
    return q * q / 4.0


def tradeoff_q(eps: float) -> float:
    """Largest overlap still explaining tolerance eps: min(1, 2 sqrt(eps))."""
    return min(1.0, 2.0 * math.sqrt(eps))


def outcome_law(mu: list[float], xi: list[list[float]]) -> list[float]:
    """P(k) = sum_lam xi[k][lam] mu[lam], summed with math.fsum."""
    return [math.fsum(x * p for x, p in zip(row, mu)) for row in xi]


def total_variation(freq: dict, law: dict) -> float:
    keys = set(freq) | set(law)
    return 0.5 * math.fsum(abs(float(freq.get(k, 0)) - float(law.get(k, 0))) for k in keys)

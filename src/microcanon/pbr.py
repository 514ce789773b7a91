"""Desk-scale no-go check for overlapping preparation distributions.

Two qubits are independently prepared in |0> or |+> and measured in a fixed
entangled four-outcome basis; each of the four product preparations is
orthogonal to exactly one basis vector, so quantum theory forbids one
outcome per preparation.  An ontological model whose single-system
distributions mu_0, mu_+ overlap (tunable mass q via a three-point family)
must, under preparation independence, assign some forbidden outcome a
probability of at least q^2/4 no matter how the response function is chosen.
The minimax over response functions is an exact linear program, with a
simplex-grid coordinate descent as an independent upper-bound check, and a
binary search inverts the curve into precision-versus-overlap form.

The kets, Born tables, joint weights and LP are plain Python (complex and
float tuples, Fraction lists); numpy is imported inside the grid descent
only, so the exact path and `cat_fixture` never load it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import roots
from .errors import DimensionMismatch, DomainError, NormalizationError, SizeLimit
from .ontology import (
    EpistemicState,
    LambdaSpace,
    OntModel,
    OverlapReport,
    ResponseFunction,
    overlap_classify,
)

NORM_TOL = 1e-12
FORBIDDEN_TOL = 1e-12  # Born probability below this counts as an analytic zero
SEARCH_TOL = 1e-9  # bracket width of the eps -> q_max bisection
MAX_GRID_RESOLUTION = 100  # C(r + 3, 3) grid columns: 0.5 s per q at 100, 6.4 s at 200


def _weight(z: complex) -> float:
    """|z|^2 as abs(z) ** 2, or inf where abs or the power overflows."""
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Ket:
    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        norm = sum(map(_weight, self.amplitudes))
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
            raise NormalizationError(f"|amplitudes|^2 sums to {norm!r}")

    @property
    def dim(self) -> int:
        return len(self.amplitudes)


def inner(a: Ket, b: Ket) -> complex:
    """Sesquilinear inner product, conjugate-linear in the first argument."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dims {a.dim} != {b.dim}")
    return sum((x.conjugate() * y for x, y in zip(a.amplitudes, b.amplitudes)), 0j)


def tensor(a: Ket, b: Ket) -> Ket:
    return Ket(amplitudes=tuple(x * y for x in a.amplitudes for y in b.amplitudes))


@dataclass(frozen=True)
class MeasurementBasis:
    vectors: tuple[Ket, ...]

    def __post_init__(self):
        dims = {v.dim for v in self.vectors}
        if len(dims) != 1:
            raise DimensionMismatch(f"mixed dims {sorted(dims)}")
        d = dims.pop()
        if len(self.vectors) != d:
            raise DimensionMismatch(f"{len(self.vectors)} vectors for dim {d}")
        for i, vi in enumerate(self.vectors):
            for vj in self.vectors[i + 1:]:
                if abs(inner(vi, vj)) > NORM_TOL:
                    raise NormalizationError("basis vectors are not orthogonal")

    @property
    def dim(self) -> int:
        return self.vectors[0].dim


def born_prob(state: Ket, basis: MeasurementBasis) -> tuple[float, ...]:
    if state.dim != basis.dim:
        raise DimensionMismatch(f"state dim {state.dim} != basis dim {basis.dim}")
    return tuple(abs(inner(v, state)) ** 2 for v in basis.vectors)


KET0 = Ket((1 + 0j, 0j))
KET1 = Ket((0j, 1 + 0j))
KET_PLUS = Ket((1 / math.sqrt(2) + 0j, 1 / math.sqrt(2) + 0j))
KET_MINUS = Ket((1 / math.sqrt(2) + 0j, -1 / math.sqrt(2) + 0j))

PREP_NAMES = ("0,0", "0,+", "+,0", "+,+")
OUTCOME_NAMES = ("xi1", "xi2", "xi3", "xi4")


def product_preparations() -> tuple[Ket, ...]:
    """|0,0>, |0,+>, |+,0>, |+,+> in PREP_NAMES order."""
    return (
        tensor(KET0, KET0),
        tensor(KET0, KET_PLUS),
        tensor(KET_PLUS, KET0),
        tensor(KET_PLUS, KET_PLUS),
    )


def _superpose(a: Ket, b: Ket) -> Ket:
    return Ket(amplitudes=tuple((x + y) / math.sqrt(2)
                                for x, y in zip(a.amplitudes, b.amplitudes)))


def pbr_basis() -> MeasurementBasis:
    """The four-outcome entangled basis; outcome k annihilates preparation k."""
    return MeasurementBasis(vectors=(
        _superpose(tensor(KET0, KET1), tensor(KET1, KET0)),
        _superpose(tensor(KET0, KET_MINUS), tensor(KET1, KET_PLUS)),
        _superpose(tensor(KET_PLUS, KET1), tensor(KET_MINUS, KET0)),
        _superpose(tensor(KET_PLUS, KET_MINUS), tensor(KET_MINUS, KET_PLUS)),
    ))


@functools.cache
def quantum_targets() -> tuple[tuple[float, ...], ...]:
    """Born probabilities, rows = PREP_NAMES, columns = OUTCOME_NAMES; shared, immutable."""
    basis = pbr_basis()
    return tuple(born_prob(p, basis) for p in product_preparations())


SINGLE_LABELS = ("lamA", "lamB", "lamC")


@dataclass(frozen=True)
class OverlapFamily:
    """Three-point single-system family with overlap mass exactly q."""

    q: float

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise DomainError(f"q={self.q} outside [0, 1]")

    @property
    def mu_0(self) -> tuple[float, ...]:
        return (1.0 - self.q, self.q, 0.0)

    @property
    def mu_plus(self) -> tuple[float, ...]:
        return (0.0, self.q, 1.0 - self.q)

    def single_model(self) -> OntModel:
        return OntModel(
            lam=LambdaSpace(labels=SINGLE_LABELS),
            preparations=(
                EpistemicState(name="0", mu=self.mu_0),
                EpistemicState(name="+", mu=self.mu_plus),
            ),
            measurements=(),
            born_targets=None,
        )


JOINT_LABELS = tuple(f"{a}|{b}" for a in SINGLE_LABELS for b in SINGLE_LABELS)


def _exact_joint_weights(family: OverlapFamily) -> list[list[Fraction]]:
    """Preparation-independent joint mu, rows = PREP_NAMES, columns = JOINT_LABELS:
    each row is the outer product of the two single-system distributions, in
    exact Fractions."""
    singles = {"0": family.mu_0, "+": family.mu_plus}
    return [[Fraction(a) * Fraction(b) for a in singles[left] for b in singles[right]]
            for left, right in (name.split(",") for name in PREP_NAMES)]


def joint_weights(family: OverlapFamily) -> list[list[float]]:
    """The joint mu of _exact_joint_weights, each entry rounded to a float."""
    return [[float(x) for x in row] for row in _exact_joint_weights(family)]


def forbidden_pairs() -> list[tuple[int, int]]:
    """(preparation, outcome) pairs whose Born target is an analytic zero."""
    return [(p, k) for p, row in enumerate(quantum_targets()) for k, target in enumerate(row)
            if target < FORBIDDEN_TOL]


@dataclass(frozen=True)
class MinimaxResult:
    value: float
    xi: tuple[tuple[float, ...], ...]  # rows = outcomes, columns = joint states


def _minimax_lp(weights: list[list[Fraction]]) -> MinimaxResult:
    """Exact LP optimum: minimize the largest forbidden-outcome probability.

    Outcome k is charged c[k][lam] = max weights[p][lam] over its forbidden
    pairs (p, k).  A state charged by every outcome carries every forbidden
    probability alone, so its best column is xi[k] proportional to
    1 / c[k], and the optimum is 1 / sum_k 1 / c[k] in Fractions; two or
    more such states share the constraints: DomainError.  Every other state
    costs nothing.  One weighted by a single preparation takes that
    preparation's Born row, which is zero on its forbidden outcomes, the
    only ones charged there; the rest put their whole column on an
    uncharged outcome.  So the witness meets the Born table wherever the
    preparations' supports do not overlap.
    """
    targets, pairs = quantum_targets(), forbidden_pairs()
    n_lam = len(weights[0])
    charges = [[max((weights[p][lam] for p, j in pairs if j == k), default=0)
                for k in range(4)] for lam in range(n_lam)]
    full = [lam for lam, col in enumerate(charges) if 0 not in col]
    if len(full) > 1:
        raise DomainError(f"{len(full)} joint states are charged by every outcome")
    value = Fraction(0)
    columns = []
    for lam, col in enumerate(charges):
        owners = [p for p, row in enumerate(weights) if row[lam] != 0]
        if lam in full:
            inverse = [1 / Fraction(c) for c in col]
            value = 1 / sum(inverse)
            columns.append([float(x * value) for x in inverse])
        elif len(owners) == 1:
            columns.append(targets[owners[0]])
        else:
            free = col.index(0)
            columns.append([float(k == free) for k in range(4)])
    return MinimaxResult(value=float(value), xi=tuple(zip(*columns)))


def _simplex_grid(resolution: int, parts: int) -> np.ndarray:
    """Simplex points with coordinates in multiples of 1/resolution, one per
    row, in the lexicographic order of their stars-and-bars cut positions."""
    import numpy as np
    cuts = np.array(list(itertools.combinations(range(resolution + parts - 1),
                                                parts - 1)))
    counts = np.diff(cuts, axis=1, prepend=-1, append=resolution + parts - 1) - 1
    return counts / resolution


def _minimax_grid(weights: list[list[Fraction]], resolution: int) -> MinimaxResult:
    """Coordinate descent over per-state response columns on a simplex grid.

    Upper-bounds the LP optimum; the gap is at most the grid spacing because
    the objective is piecewise linear in each column.  The weights are
    rounded to floats once, here.
    """
    import numpy as np
    pairs = forbidden_pairs()
    weights = np.array(weights, dtype=float)
    n_out = 4
    n_lam = weights.shape[1]
    xi = np.full((n_out, n_lam), 1.0 / n_out)
    candidates = _simplex_grid(resolution, n_out)
    ps = [p for p, _ in pairs]
    ks = [k for _, k in pairs]

    def pair_probs():
        return np.array([float(weights[p] @ xi[k]) for p, k in pairs])

    for _ in range(4):  # sweeps, stopping early once no column changes
        changed = False
        for lam in range(n_lam):
            w_lam = weights[ps, lam]
            base = pair_probs() - w_lam * xi[ks, lam]
            # rows = candidate columns, columns = forbidden pairs
            tot = base + w_lam * candidates[:, ks]
            # lexicographic objective: the max decides, the sum breaks ties so
            # slack columns do not park mass on outcomes that become binding
            # later in the sweep; lexsort is stable, so among equal keys the
            # earliest candidate wins
            best_col = candidates[np.lexsort((tot.sum(axis=1), tot.max(axis=1)))[0]]
            if not np.allclose(xi[:, lam], best_col):
                xi[:, lam] = best_col
                changed = True
        if not changed:
            break
    return MinimaxResult(value=float(np.max(pair_probs())),
                         xi=tuple(map(tuple, xi.tolist())))


def min_forbidden_probability(q: float, resolution: int = 50,
                              method: str = "lp") -> float:
    """Smallest achievable max forbidden-outcome probability at overlap q."""
    return minimize_forbidden(q, resolution=resolution, method=method).value


def minimize_forbidden(q: float, resolution: int = 50,
                       method: str = "lp") -> MinimaxResult:
    """As min_forbidden_probability but also returns the witness response."""
    if method == "grid" and resolution < 1:
        raise DomainError(f"grid resolution {resolution} < 1")
    if method == "grid" and resolution > MAX_GRID_RESOLUTION:
        raise SizeLimit(f"grid resolution {resolution} > {MAX_GRID_RESOLUTION}")
    # exact weights: the LP value is then rounded once, from the exact optimum
    weights = _exact_joint_weights(OverlapFamily(q=q))  # validates q's domain
    if method == "lp":
        return _minimax_lp(weights)
    if method == "grid":
        return _minimax_grid(weights, resolution)
    raise ValueError(f"unknown method {method!r}")


def witness_model(q: float, resolution: int = 50, method: str = "lp") -> OntModel:
    """Joint OntModel carrying the optimizing response and the Born targets."""
    weights = joint_weights(OverlapFamily(q=q))
    result = minimize_forbidden(q, resolution=resolution, method=method)
    return OntModel(
        lam=LambdaSpace(labels=JOINT_LABELS),
        preparations=tuple(EpistemicState(name=name, mu=tuple(row))
                           for name, row in zip(PREP_NAMES, weights)),
        measurements=(ResponseFunction(
            name="entangled-basis",
            outcomes=OUTCOME_NAMES,
            xi=result.xi,
        ),),
        born_targets={name: {"entangled-basis": row}
                      for name, row in zip(PREP_NAMES, quantum_targets())},
    )


def epsilon_overlap_tradeoff(eps_grid: list[float], resolution: int = 50,
                             method: str = "lp") -> list[tuple[float, float]]:
    """For each tolerance eps, the largest overlap q still explaining it.

    q_max(eps) = sup {q : min_forbidden_probability(q) <= eps}, found by
    bisection; monotone because raising q only tightens the constraints.
    """
    if any(not 0 <= e <= 1 for e in eps_grid):  # NaN fails too
        raise DomainError("eps values must lie in [0, 1]")
    if sorted(eps_grid) != list(eps_grid):
        raise DomainError("eps grid must be sorted ascending")
    at_full_overlap = min_forbidden_probability(1.0, resolution, method)
    curve = []
    for eps in eps_grid:
        if at_full_overlap <= eps:
            curve.append((eps, 1.0))
            continue
        lo, _ = roots.bisect(  # lo = 0 is feasible: min_forbidden(0) = 0 <= eps
            lambda q: min_forbidden_probability(q, resolution, method) <= eps,
            0.0, 1.0, lambda lo, hi: hi - lo <= SEARCH_TOL)
        curve.append((eps, lo))
    return curve


CAT_LABELS = ("lam:cat+|atom-e", "lam:cat-|atom-d", "lam':superposition")
CAT_PREPS = ("cat+|atom-e", "cat-|atom-d", "superposition")


@dataclass(frozen=True)
class CatFixture:
    model: OntModel
    overlaps: dict[tuple[str, str], OverlapReport]


def cat_fixture(a: complex, b: complex) -> CatFixture:
    """Disjoint-support model of the decayed/undecayed/superposed atom-cat pair.

    Each quantum state gets its own ontic block; the superposition gets a
    fresh block rather than the union of the other two.  The alive/dead
    response on the superposition block carries the Born weights (|a|^2,
    |b|^2), so all targets are met with zero deviation while every pair of
    supports stays disjoint.
    """
    wa, wb = _weight(a), _weight(b)
    if not abs(wa + wb - 1.0) <= NORM_TOL:  # NaN fails too
        raise NormalizationError(f"|a|^2 + |b|^2 = {wa + wb!r}")
    space = LambdaSpace(labels=CAT_LABELS)
    preps = (
        EpistemicState(name=CAT_PREPS[0], mu=(1.0, 0.0, 0.0)),
        EpistemicState(name=CAT_PREPS[1], mu=(0.0, 1.0, 0.0)),
        EpistemicState(name=CAT_PREPS[2], mu=(0.0, 0.0, 1.0)),
    )
    meas = ResponseFunction(
        name="alive-dead",
        outcomes=("alive", "dead"),
        xi=((1.0, 0.0, wa), (0.0, 1.0, wb)),
    )
    model = OntModel(
        lam=space,
        preparations=preps,
        measurements=(meas,),
        born_targets={
            CAT_PREPS[0]: {"alive-dead": (1.0, 0.0)},
            CAT_PREPS[1]: {"alive-dead": (0.0, 1.0)},
            CAT_PREPS[2]: {"alive-dead": (wa, wb)},
        },
    )
    overlaps = {}
    for i in range(len(preps)):
        for j in range(i + 1, len(preps)):
            overlaps[(preps[i].name, preps[j].name)] = overlap_classify(
                preps[i], preps[j], space)
    return CatFixture(model=model, overlaps=overlaps)

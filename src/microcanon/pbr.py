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
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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


@dataclass(frozen=True)
class Ket:
    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        norm = sum(abs(a) ** 2 for a in self.amplitudes)
        if abs(norm - 1.0) > NORM_TOL:
            raise NormalizationError(f"|amplitudes|^2 sums to {norm!r}")

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    def vector(self) -> np.ndarray:
        return np.asarray(self.amplitudes, dtype=complex)


def inner(a: Ket, b: Ket) -> complex:
    """Sesquilinear inner product, conjugate-linear in the first argument."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dims {a.dim} != {b.dim}")
    return complex(np.vdot(a.vector(), b.vector()))


def tensor(a: Ket, b: Ket) -> Ket:
    return Ket(amplitudes=tuple(np.kron(a.vector(), b.vector())))


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


def born_prob(state: Ket, basis: MeasurementBasis) -> np.ndarray:
    if state.dim != basis.dim:
        raise DimensionMismatch(f"state dim {state.dim} != basis dim {basis.dim}")
    return np.array([abs(inner(v, state)) ** 2 for v in basis.vectors])


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
    v = (a.vector() + b.vector()) / math.sqrt(2)
    return Ket(amplitudes=tuple(v))


def pbr_basis() -> MeasurementBasis:
    """The four-outcome entangled basis; outcome k annihilates preparation k."""
    return MeasurementBasis(vectors=(
        _superpose(tensor(KET0, KET1), tensor(KET1, KET0)),
        _superpose(tensor(KET0, KET_MINUS), tensor(KET1, KET_PLUS)),
        _superpose(tensor(KET_PLUS, KET1), tensor(KET_MINUS, KET0)),
        _superpose(tensor(KET_PLUS, KET_MINUS), tensor(KET_MINUS, KET_PLUS)),
    ))


@functools.cache
def quantum_targets() -> np.ndarray:
    """Born probabilities, rows = PREP_NAMES, columns = OUTCOME_NAMES; shared, read-only."""
    basis = pbr_basis()
    targets = np.array([born_prob(p, basis) for p in product_preparations()])
    targets.setflags(write=False)
    return targets


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


def _exact_joint_weights(family: OverlapFamily) -> np.ndarray:
    """Preparation-independent joint mu, rows = PREP_NAMES, columns = JOINT_LABELS:
    each row is the outer product of the two single-system distributions, in
    exact Fractions."""
    singles = {"0": family.mu_0, "+": family.mu_plus}
    return np.array([[Fraction(a) * Fraction(b) for a in singles[left] for b in singles[right]]
                     for left, right in (name.split(",") for name in PREP_NAMES)])


def joint_weights(family: OverlapFamily) -> np.ndarray:
    """The joint mu of _exact_joint_weights, each entry rounded to a float."""
    return _exact_joint_weights(family).astype(float)


def forbidden_pairs() -> list[tuple[int, int]]:
    """(preparation, outcome) pairs whose Born target is an analytic zero."""
    targets = quantum_targets()
    return [(p, k) for p in range(targets.shape[0]) for k in range(targets.shape[1])
            if targets[p, k] < FORBIDDEN_TOL]


@dataclass(frozen=True)
class MinimaxResult:
    value: float
    xi: np.ndarray  # rows = outcomes, columns = joint states


def _minimax_lp(weights: np.ndarray, pairs: list[tuple[int, int]]) -> MinimaxResult:
    """Exact LP optimum: minimize the largest forbidden-outcome probability.

    Outcome k is charged c[k, lam] = max weights[p, lam] over its forbidden
    pairs (p, k).  A joint state with an uncharged outcome puts its whole
    response column there at no cost.  A state charged by every outcome then
    carries every forbidden probability alone, so its best column is
    xi[k] proportional to 1 / c[k], and the optimum is 1 / sum_k 1 / c[k] in
    Fractions.  Two or more such states share the constraints: DomainError.
    """
    n_lam = weights.shape[1]
    columns = [[max((Fraction(weights[p, lam]) for p, j in pairs if j == k), default=0)
                for k in range(4)] for lam in range(n_lam)]
    full = [lam for lam, col in enumerate(columns) if 0 not in col]
    if len(full) > 1:
        raise DomainError(f"{len(full)} joint states are charged by every outcome")
    xi = np.zeros((4, n_lam))
    value = Fraction(0)
    for lam, col in enumerate(columns):
        if lam in full:
            inverse = [1 / c for c in col]
            value = 1 / sum(inverse)
            xi[:, lam] = [float(x * value) for x in inverse]
        else:
            xi[col.index(0), lam] = 1.0
    return MinimaxResult(value=float(value), xi=xi)


def _simplex_grid(resolution: int, parts: int) -> np.ndarray:
    """Simplex points with coordinates in multiples of 1/resolution, one per
    row, in the lexicographic order of their stars-and-bars cut positions."""
    cuts = np.array(list(itertools.combinations(range(resolution + parts - 1),
                                                parts - 1)))
    counts = np.diff(cuts, axis=1, prepend=-1, append=resolution + parts - 1) - 1
    return counts / resolution


def _minimax_grid(weights: np.ndarray, pairs: list[tuple[int, int]],
                  resolution: int) -> MinimaxResult:
    """Coordinate descent over per-state response columns on a simplex grid.

    Upper-bounds the LP optimum; the gap is at most the grid spacing because
    the objective is piecewise linear in each column.
    """
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
    return MinimaxResult(value=float(np.max(pair_probs())), xi=xi)


def _psi_ontic_witness(weights: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Response matrix matching the targets on every point-mass support.

    Valid whenever each joint state carries weight under at most one
    preparation (the q = 0 case); remaining columns default to uniform.
    """
    n_out, n_lam = targets.shape[1], weights.shape[1]
    xi = np.full((n_out, n_lam), 1.0 / n_out)
    for lam in range(n_lam):
        owners = np.nonzero(weights[:, lam] > 0)[0]
        if len(owners) == 1:
            xi[:, lam] = targets[owners[0]]
    return xi


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
    targets = quantum_targets()
    pairs = forbidden_pairs()
    if method == "lp":
        result = _minimax_lp(weights, pairs)
        if q == 0.0:
            # disjoint supports: rebuild the witness from the targets so it
            # reproduces the full quantum table, not just the forbidden zeros
            xi = _psi_ontic_witness(weights, targets)
            result = MinimaxResult(value=result.value, xi=xi)
        return result
    if method == "grid":
        return _minimax_grid(weights.astype(float), pairs, resolution)
    raise ValueError(f"unknown method {method!r}")


def witness_model(q: float, resolution: int = 50, method: str = "lp") -> OntModel:
    """Joint OntModel carrying the optimizing response and the Born targets."""
    weights = joint_weights(OverlapFamily(q=q))
    result = minimize_forbidden(q, resolution=resolution, method=method)
    targets = quantum_targets()
    return OntModel(
        lam=LambdaSpace(labels=JOINT_LABELS),
        preparations=tuple(EpistemicState(name=name, mu=tuple(row.tolist()))
                           for name, row in zip(PREP_NAMES, weights)),
        measurements=(ResponseFunction(
            name="entangled-basis",
            outcomes=OUTCOME_NAMES,
            xi=tuple(tuple(float(x) for x in row) for row in result.xi),
        ),),
        born_targets={
            PREP_NAMES[p]: {"entangled-basis": tuple(float(x) for x in targets[p])}
            for p in range(len(PREP_NAMES))
        },
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
    wa, wb = abs(a) ** 2, abs(b) ** 2
    if abs(wa + wb - 1.0) > NORM_TOL:
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

"""Finite ontological models: preparations mu, response functions xi.

A model lives on a finite set of ontic states (labels).  Each preparation
is a probability distribution mu over those states; each measurement is a
column-stochastic matrix xi whose entry (outcome k, state lam) gives the
probability that lam yields outcome k.  Outcome statistics are then
P(k | prep) = sum_lam xi[k, lam] * mu[lam], and optional Born targets let a
model be checked against quantum predictions.

The overlap taxonomy compares two preparations by their supports (complete,
partial or no overlap) and by the scalar overlap mass sum_lam min(mu1, mu2).
A model is "non-minimal" (psi-ontic) when every ontic state sits in at most
one preparation's support, "minimal" (psi-epistemic) otherwise.

The gas bridge turns a lattice gas spec into such a model: ontic states are
the binning states, mu is proportional to multiplicity (uniform over
microstates), and the one measurement is the energy of a single tagged
particle, xi[eps_i, lam] = n_i / N.  All of that is exact in rationals.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import ensemble
from .errors import DimensionMismatch, MissingTargets, SchemaError

PROB_TOL = 1e-12

OVERLAP_NONE = "none"
OVERLAP_PARTIAL = "partial"
OVERLAP_COMPLETE = "complete"

VERDICT_NON_MINIMAL = "non-minimal (psi-ontic)"
VERDICT_MINIMAL = "minimal (psi-epistemic)"


@dataclass(frozen=True)
class LambdaSpace:
    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("lambda space must be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("lambda labels must be unique")

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class EpistemicState:
    """Named distribution mu over a LambdaSpace (validated by validate())."""

    name: str
    mu: tuple[float, ...]

    def support(self) -> frozenset[int]:
        return frozenset(i for i, p in enumerate(self.mu) if p > 0)


@dataclass(frozen=True)
class ResponseFunction:
    """Named outcome-by-lambda matrix xi; columns sum to one."""

    name: str
    outcomes: tuple[str, ...]
    xi: tuple[tuple[float, ...], ...]  # rows = outcomes, columns = lambda


@dataclass(frozen=True)
class OntModel:
    lam: LambdaSpace
    preparations: tuple[EpistemicState, ...]
    measurements: tuple[ResponseFunction, ...]
    # born_targets[prep name][measurement name] -> probabilities by outcome
    born_targets: dict[str, dict[str, tuple[float, ...]]] | None = None

    def preparation(self, name: str) -> EpistemicState:
        for p in self.preparations:
            if p.name == name:
                return p
        raise KeyError(f"no preparation named {name!r}")

    def measurement(self, name: str) -> ResponseFunction:
        for m in self.measurements:
            if m.name == name:
                return m
        raise KeyError(f"no measurement named {name!r}")


@dataclass(frozen=True)
class Violation:
    where: str
    message: str
    magnitude: float


def validate(model: OntModel) -> list[Violation]:
    """Every violated invariant with its magnitude; empty list means valid."""
    out: list[Violation] = []
    n_lam = model.lam.size
    for p in model.preparations:
        if len(p.mu) != n_lam:
            out.append(Violation(f"preparation {p.name}", "mu length != lambda size",
                                 abs(len(p.mu) - n_lam)))
            continue
        nonfinite = sum(1 for x in p.mu if not math.isfinite(x))
        if nonfinite:
            out.append(Violation(f"preparation {p.name}", "non-finite mu entries",
                                 float(nonfinite)))
            continue
        neg = [x for x in p.mu if x < 0]
        if neg:
            out.append(Violation(f"preparation {p.name}", "negative mu entries", -min(neg)))
        total = sum(p.mu)
        if abs(total - 1.0) > PROB_TOL:
            out.append(Violation(f"preparation {p.name}", f"sum(mu) = {total!r}", abs(total - 1.0)))
    for m in model.measurements:
        if not m.xi or len(m.xi) != len(m.outcomes) or any(len(r) != n_lam for r in m.xi):
            out.append(Violation(f"measurement {m.name}", "xi shape != (outcomes, lambda)", 0.0))
            continue
        nonfinite = n_lam * len(m.xi) - sum(sum(map(math.isfinite, row)) for row in m.xi)
        if nonfinite:
            out.append(Violation(f"measurement {m.name}", "non-finite xi entries",
                                 float(nonfinite)))
            continue
        low, high = min(map(min, m.xi)), max(map(max, m.xi))
        if low < -PROB_TOL or high > 1 + PROB_TOL:
            out.append(Violation(f"measurement {m.name}", "xi entries outside [0, 1]",
                                 float(max(-low, high - 1))))
        # row by row from 0.0, so an all -0.0 column sums to 0.0, and in one
        # order on every Python version (sum() compensates floats from 3.12)
        col = (0.0,) * n_lam
        for row in m.xi:
            col = tuple(map(operator.add, col, row))
        for label, total in zip(model.lam.labels, col):
            if abs(total - 1.0) > PROB_TOL:
                out.append(Violation(f"measurement {m.name}",
                                     f"column {label} sums to {total!r}", abs(total - 1.0)))
    if model.born_targets is not None:
        for pname, per_meas in model.born_targets.items():
            for mname, probs in per_meas.items():
                where = f"born_targets[{pname}][{mname}]"
                try:
                    m = model.measurement(mname)
                    model.preparation(pname)
                except KeyError as exc:
                    out.append(Violation(where, str(exc), 0.0))
                    continue
                if len(probs) != len(m.outcomes):
                    out.append(Violation(where, "target length != outcome count",
                                         abs(len(probs) - len(m.outcomes))))
                    continue
                nonfinite = sum(1 for x in probs if not math.isfinite(x))
                if nonfinite:
                    out.append(Violation(where, "non-finite target entries", float(nonfinite)))
                    continue
                low, high = min(probs, default=0.0), max(probs, default=0.0)
                if low < -PROB_TOL or high > 1 + PROB_TOL:
                    out.append(Violation(where, "target entries outside [0, 1]",
                                         float(max(-low, high - 1))))
                total = sum(probs)
                if abs(total - 1.0) > PROB_TOL:
                    out.append(Violation(where, f"targets sum to {total!r}", abs(total - 1.0)))
    return out


def _require_mu_fits(model: OntModel, p: EpistemicState):
    if len(p.mu) != model.lam.size:
        raise DimensionMismatch(
            f"preparation {p.name} has {len(p.mu)} mu entries over {model.lam.size} states")


def outcome_distribution(model: OntModel, prep: str, meas: str) -> tuple[float, ...]:
    """P(outcome k) = sum_lam xi[k, lam] mu[lam], summed in lambda order."""
    p = model.preparation(prep)
    m = model.measurement(meas)
    _require_mu_fits(model, p)
    n_lam = model.lam.size
    if len(m.xi) != len(m.outcomes) or any(len(row) != n_lam for row in m.xi):
        raise DimensionMismatch(f"measurement {meas}: xi shape != ({len(m.outcomes)} outcomes, "
                                f"{n_lam} states)")
    return tuple(sum(map(operator.mul, row, p.mu)) for row in m.xi)


@dataclass(frozen=True)
class DeviationEntry:
    preparation: str
    measurement: str
    outcome: str
    target: float
    actual: float
    deviation: float


def born_deviation(model: OntModel) -> tuple[float, list[DeviationEntry]]:
    """Max |target - model probability| plus the full deviation table."""
    if model.born_targets is None:
        raise MissingTargets("model carries no born_targets")
    table: list[DeviationEntry] = []
    for pname, per_meas in model.born_targets.items():
        for mname, targets in per_meas.items():
            m = model.measurement(mname)
            if len(targets) != len(m.outcomes):
                raise DimensionMismatch(f"born_targets[{pname}][{mname}] has {len(targets)} "
                                        f"entries for {len(m.outcomes)} outcomes")
            actual = outcome_distribution(model, pname, mname)
            for k, outcome in enumerate(m.outcomes):
                table.append(DeviationEntry(
                    preparation=pname, measurement=mname, outcome=outcome,
                    target=float(targets[k]), actual=float(actual[k]),
                    deviation=abs(float(targets[k]) - float(actual[k])),
                ))
    max_dev = max((e.deviation for e in table), default=0.0)
    return max_dev, table


@dataclass(frozen=True)
class OverlapReport:
    classification: str  # OVERLAP_NONE / OVERLAP_PARTIAL / OVERLAP_COMPLETE
    common_support_labels: tuple[str, ...]
    overlap_mass: float


def overlap_classify(mu1: EpistemicState, mu2: EpistemicState,
                     space: LambdaSpace) -> OverlapReport:
    if len(mu1.mu) != len(mu2.mu) or len(mu1.mu) != space.size:
        raise DimensionMismatch(
            f"{mu1.name} ({len(mu1.mu)}) vs {mu2.name} ({len(mu2.mu)}) over {space.size} states"
        )
    s1, s2 = mu1.support(), mu2.support()
    common = s1 & s2
    if not common:
        cls = OVERLAP_NONE
    elif s1 == s2:
        cls = OVERLAP_COMPLETE
    else:
        cls = OVERLAP_PARTIAL
    mass = sum(min(a, b) for a, b in zip(mu1.mu, mu2.mu))
    return OverlapReport(
        classification=cls,
        common_support_labels=tuple(space.labels[i] for i in sorted(common)),
        overlap_mass=float(mass),
    )


@dataclass(frozen=True)
class InformationClass:
    # per ontic state: names of the preparations whose support contains it
    per_lambda: dict[str, tuple[str, ...]]
    verdict: str


def information_class(model: OntModel) -> InformationClass:
    """Non-minimal (psi-ontic) iff every ontic state serves at most one preparation."""
    for p in model.preparations:
        _require_mu_fits(model, p)
    per_lambda: dict[str, tuple[str, ...]] = {}
    shared = False
    for i, label in enumerate(model.lam.labels):
        owners = tuple(p.name for p in model.preparations if p.mu[i] > 0)
        per_lambda[label] = owners
        if len(owners) > 1:
            shared = True
    return InformationClass(
        per_lambda=per_lambda,
        verdict=VERDICT_MINIMAL if shared else VERDICT_NON_MINIMAL,
    )


@dataclass(frozen=True)
class GasOntModel:
    """Gas-as-ontological-model bridge: the binning states and their exact Omega.

    Ontic states are the binning states; mu is multiplicity-proportional
    (microstates equally likely); the single measurement is the energy of a
    tagged particle, whose chance of landing in bin i is n_i / N by
    exchangeability.  No Born targets: this model defines the outcome law.
    """

    spec: ensemble.GasSpec
    binnings: tuple[tuple[int, ...], ...]
    omegas: tuple[int, ...]                 # multiplicity per binning state

    @property
    def model(self) -> OntModel:
        """The float OntModel, built on each access: labels are the binnings as
        JSON lists, mu = Omega / sum Omega and xi[i, lam] = n_i / N."""
        total, n = sum(self.omegas), self.spec.n
        # int / int rounds once, so these equal the floats of the exact fractions
        return OntModel(
            lam=LambdaSpace(labels=tuple(json.dumps(list(b)) for b in self.binnings)),
            preparations=(EpistemicState(name="T", mu=tuple(o / total for o in self.omegas)),),
            measurements=(ResponseFunction(
                name="tagged-particle-energy",
                outcomes=tagged_outcome_names(self.spec),
                xi=tuple(tuple(x / n for x in occupancy) for occupancy in zip(*self.binnings)),
            ),),
            born_targets=None,
        )

    @property
    def mu_exact(self) -> tuple[Fraction, ...]:
        """mu[lam] = Omega(lam) / sum Omega, exact."""
        total = sum(self.omegas)
        return tuple(Fraction(o, total) for o in self.omegas)

    def outcome_probabilities_exact(self) -> tuple[Fraction, ...]:
        """P(eps_i) = sum_lam xi[i, lam] mu[lam] = sum_lam Omega n_i / (N sum Omega), exact."""
        denom = self.spec.n * sum(self.omegas)
        return tuple(
            Fraction(sum(o * n for o, n in zip(self.omegas, occupancy)), denom)
            for occupancy in zip(*self.binnings)
        )


def gas_model(spec: ensemble.GasSpec, max_states: int = ensemble.DEFAULT_STATE_CAP) -> GasOntModel:
    """Ontological model of the lattice gas prepared at fixed total energy:
    every binning state with its exact multiplicity."""
    states = tuple(ensemble.enumerate_binnings(spec, max_states=max_states))
    return GasOntModel(spec=spec, binnings=states,
                       omegas=tuple(ensemble.multiplicities(states)[0]))


def tagged_outcome_names(spec: ensemble.GasSpec) -> tuple[str, ...]:
    """Outcome names of the tagged-particle energy measurement, 'eps=<energy>' per bin."""
    return tuple(f"eps={spec.energy(i):g}" for i in range(spec.m))


def peak_approximation_delta(spec: ensemble.GasSpec, peak: tuple[int, ...] | None = None) -> float:
    """Max outcome error of replacing the mu-average by the mu-peak state.

    The average is the exact tagged-particle law and the peak state the
    argmax of Omega, first in lexicographic order on ties, unless the
    caller passes the peak it already holds; neither lists the binnings.
    """
    if peak is None:
        peak = ensemble.most_probable_binnings(spec)[0]
    return max(abs(float(p - Fraction(n, spec.n)))
               for p, n in zip(ensemble.tagged_law(spec), peak))


# --- JSON schema -----------------------------------------------------------

def model_to_dict(model: OntModel) -> dict:
    doc = {
        "lambda": list(model.lam.labels),
        "preparations": [{"name": p.name, "mu": list(p.mu)} for p in model.preparations],
        "measurements": [
            {"name": m.name, "outcomes": list(m.outcomes), "xi": [list(r) for r in m.xi]}
            for m in model.measurements
        ],
    }
    if model.born_targets is not None:
        doc["born_targets"] = {
            p: {m: list(v) for m, v in per.items()}
            for p, per in model.born_targets.items()
        }
    return doc


_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _expect(value, where: str, kind):
    """value itself when it is a JSON value of the given kind, else SchemaError."""
    if not isinstance(value, kind):
        raise SchemaError(f"{where} must be {_KINDS[kind]}, not {type(value).__name__}")
    return value


def _field(obj: dict, key: str, where: str) -> tuple:
    """obj[key] and its path, for a key the schema requires."""
    if key not in obj:
        raise SchemaError(f"{where} has no key {key!r}")
    return obj[key], f"{where}.{key}"


def _list_of(value, where: str, kind) -> tuple:
    for i, x in enumerate(_expect(value, where, list)):
        if not isinstance(x, kind):
            _expect(x, f"{where}[{i}]", kind)
    return tuple(value)


def _floats(value, where: str) -> tuple[float, ...]:
    # one C-level pass over the entry types; the slow pass only names a bad entry
    if not set(map(type, _expect(value, where, list))) <= {int, float}:
        for i, x in enumerate(value):
            # a JSON boolean is an int to isinstance, but not a number
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise SchemaError(f"{where}[{i}] must be a number, not {type(x).__name__}")
    return tuple(map(float, value))


def model_from_dict(doc: dict) -> OntModel:
    """Model from its JSON document; a SchemaError names the first value of the wrong shape."""
    _expect(doc, "model", dict)
    preparations = []
    for i, p in enumerate(_list_of(*_field(doc, "preparations", "model"), dict)):
        where = f"model.preparations[{i}]"
        preparations.append(EpistemicState(name=_expect(*_field(p, "name", where), str),
                                           mu=_floats(*_field(p, "mu", where))))
    measurements = []
    for i, m in enumerate(_list_of(*_field(doc, "measurements", "model"), dict)):
        where = f"model.measurements[{i}]"
        xi, xi_where = _field(m, "xi", where)
        measurements.append(ResponseFunction(
            name=_expect(*_field(m, "name", where), str),
            outcomes=_list_of(*_field(m, "outcomes", where), str),
            xi=tuple(_floats(row, f"{xi_where}[{k}]")
                     for k, row in enumerate(_expect(xi, xi_where, list))),
        ))
    targets = doc.get("born_targets")
    if targets is not None:
        targets = {
            p: {m: _floats(v, f"model.born_targets.{p}.{m}")
                for m, v in _expect(per, f"model.born_targets.{p}", dict).items()}
            for p, per in _expect(targets, "model.born_targets", dict).items()
        }
    return OntModel(
        lam=LambdaSpace(labels=_list_of(*_field(doc, "lambda", "model"), str)),
        preparations=tuple(preparations),
        measurements=tuple(measurements),
        born_targets=targets,
    )


def load_model(path: str) -> OntModel:
    # every JSON number is read as a float: an integer past the float range
    # becomes inf, which validate() reports, instead of overflowing float()
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh, parse_int=float))


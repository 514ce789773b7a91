"""Ontological-model validation, overlap taxonomy, and the gas bridge."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microcanon import ensemble, ontology
from microcanon.errors import DimensionMismatch, MissingTargets, SchemaError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def marbles() -> ontology.OntModel:
    return ontology.load_model(str(FIXTURES / "marbles.json"))


class TestValidate:
    def test_marble_fixture_is_valid(self, marbles):
        assert ontology.validate(marbles) == []

    def test_detects_unnormalized_mu(self, marbles):
        doc = ontology.model_to_dict(marbles)
        doc["preparations"][0]["mu"][0] += 0.1
        bad = ontology.model_from_dict(doc)
        viols = ontology.validate(bad)
        assert any("sum(mu)" in v.message for v in viols)
        assert any(abs(v.magnitude - 0.1) < 1e-12 for v in viols)

    def test_detects_negative_mu(self, marbles):
        doc = ontology.model_to_dict(marbles)
        doc["preparations"][1]["mu"][0] = -0.05
        doc["preparations"][1]["mu"][1] += 0.05
        viols = ontology.validate(ontology.model_from_dict(doc))
        assert any("negative" in v.message for v in viols)

    def test_detects_bad_column(self, marbles):
        doc = ontology.model_to_dict(marbles)
        doc["measurements"][0]["xi"][0][0] += 0.2
        viols = ontology.validate(ontology.model_from_dict(doc))
        assert any("column" in v.message for v in viols)

    def test_detects_bad_target_length(self, marbles):
        doc = ontology.model_to_dict(marbles)
        prep = doc["preparations"][0]["name"]
        doc["born_targets"][prep]["color"] = [1.0]
        viols = ontology.validate(ontology.model_from_dict(doc))
        assert any("target length" in v.message for v in viols)

    def test_detects_ragged_xi(self, marbles):
        doc = ontology.model_to_dict(marbles)
        doc["measurements"][0]["xi"][1].pop()
        viols = ontology.validate(ontology.model_from_dict(doc))
        assert [v.message for v in viols] == ["xi shape != (outcomes, lambda)"]

    def test_detects_nan_mu(self, marbles):
        doc = ontology.model_to_dict(marbles)
        doc["preparations"][0]["mu"][0] = float("nan")
        viols = ontology.validate(ontology.model_from_dict(doc))
        assert [(v.message, v.magnitude) for v in viols] == [("non-finite mu entries", 1.0)]

    def test_detects_nonfinite_xi(self, marbles):
        doc = ontology.model_to_dict(marbles)
        doc["measurements"][0]["xi"][0][0] = float("nan")
        doc["measurements"][0]["xi"][1][0] = float("inf")
        viols = ontology.validate(ontology.model_from_dict(doc))
        assert [(v.message, v.magnitude) for v in viols] == [("non-finite xi entries", 2.0)]

    def test_detects_nonfinite_targets(self, marbles):
        doc = ontology.model_to_dict(marbles)
        doc["born_targets"]["A"]["color"][0] = float("nan")
        doc["born_targets"]["B"]["color"][1] = float("inf")
        doc["born_targets"]["B"]["color"][2] = float("-inf")
        viols = ontology.validate(ontology.model_from_dict(doc))
        assert [(v.where, v.message, v.magnitude) for v in viols] == [
            ("born_targets[A][color]", "non-finite target entries", 1.0),
            ("born_targets[B][color]", "non-finite target entries", 2.0),
        ]

    def test_detects_targets_outside_the_unit_interval(self, marbles):
        # the row sums to 1, so only the range check sees it
        doc = ontology.model_to_dict(marbles)
        doc["born_targets"]["A"]["color"] = [1.5, -0.5, 0.0, 0.0]
        doc["born_targets"]["B"]["color"] = [-0.75, 0.5, 0.5, 0.75]
        viols = ontology.validate(ontology.model_from_dict(doc))
        assert [(v.where, v.message, v.magnitude) for v in viols] == [
            ("born_targets[A][color]", "target entries outside [0, 1]", 0.5),
            ("born_targets[B][color]", "target entries outside [0, 1]", 0.75),
        ]

    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=6))
    @settings(max_examples=50)
    def test_normalized_random_models_pass(self, raw):
        total = sum(raw)
        mu = tuple(x / total for x in raw)
        labels = tuple(f"l{i}" for i in range(len(mu)))
        k = len(mu)
        model = ontology.OntModel(
            lam=ontology.LambdaSpace(labels=labels),
            preparations=(ontology.EpistemicState(name="p", mu=mu),),
            measurements=(ontology.ResponseFunction(
                name="m", outcomes=("a", "b"),
                xi=(tuple(0.25 for _ in range(k)), tuple(0.75 for _ in range(k))),
            ),),
        )
        assert ontology.validate(model) == []
        dist = ontology.outcome_distribution(model, "p", "m")
        assert sum(dist) == pytest.approx(1.0, abs=1e-12)


    def test_all_negative_zero_column_sums_to_zero(self, marbles):
        # column sums start from 0.0, as numpy's did: -0.0 + -0.0 reads 0.0
        doc = ontology.model_to_dict(marbles)
        for row in doc["measurements"][0]["xi"]:
            row[0] = -0.0
        viols = ontology.validate(ontology.model_from_dict(doc))
        label = doc["lambda"][0]
        assert [(v.message, v.magnitude) for v in viols] == [(f"column {label} sums to 0.0", 1.0)]


class TestOutcomeDistribution:
    @pytest.mark.parametrize("n_lam", [1, 3, 8, 50, 400])
    def test_matches_exact_sums(self, n_lam):
        # a sum of n non-negative products in order is within
        # gamma_n = n u / (1 - n u) of the exact value (u = 2^-53): one to
        # a few ulps for a handful of states
        rng = random.Random(n_lam)
        gamma = n_lam * 2 ** -53 / (1 - n_lam * 2 ** -53)
        for _ in range(20):
            mu = [rng.random() for _ in range(n_lam)]
            mu = tuple(x / sum(mu) for x in mu)
            xi = tuple(tuple(rng.random() for _ in range(n_lam)) for _ in range(4))
            model = ontology.OntModel(
                lam=ontology.LambdaSpace(labels=tuple(map(str, range(n_lam)))),
                preparations=(ontology.EpistemicState(name="p", mu=mu),),
                measurements=(ontology.ResponseFunction(name="m", outcomes=tuple("abcd"), xi=xi),),
            )
            dist = ontology.outcome_distribution(model, "p", "m")
            assert type(dist) is tuple and len(dist) == 4
            for got, row in zip(dist, xi):
                exact = sum(Fraction(x) * Fraction(p) for x, p in zip(row, mu))
                assert abs(Fraction(got) - exact) <= gamma * exact


class TestBornDeviation:
    def test_marbles_meet_their_own_targets(self, marbles):
        max_dev, table = ontology.born_deviation(marbles)
        assert max_dev == 0.0
        assert len(table) == 6 * 4  # six preparations, four outcomes

    def test_perturbed_target_reported(self, marbles):
        doc = ontology.model_to_dict(marbles)
        prep = doc["preparations"][0]["name"]
        doc["born_targets"][prep]["color"][0] -= 0.10
        doc["born_targets"][prep]["color"][1] += 0.10
        max_dev, _ = ontology.born_deviation(ontology.model_from_dict(doc))
        assert max_dev == pytest.approx(0.10, abs=1e-12)

    def test_short_mu_is_dimension_mismatch(self, marbles):
        doc = ontology.model_to_dict(marbles)
        doc["preparations"][0]["mu"].pop()
        with pytest.raises(DimensionMismatch, match="preparation A has 3 mu entries"):
            ontology.born_deviation(ontology.model_from_dict(doc))

    @pytest.mark.parametrize("edit", [
        lambda d: d["born_targets"]["A"]["color"].pop(),
        lambda d: d["measurements"][0]["xi"].pop(),
        lambda d: d["measurements"][0]["xi"][1].pop(),
    ], ids=["short-targets", "missing-xi-row", "ragged-xi"])
    def test_shape_mismatch_is_dimension_mismatch(self, marbles, edit):
        doc = ontology.model_to_dict(marbles)
        edit(doc)
        with pytest.raises(DimensionMismatch):
            ontology.born_deviation(ontology.model_from_dict(doc))

    def test_missing_targets_raise(self, marbles):
        doc = ontology.model_to_dict(marbles)
        del doc["born_targets"]
        with pytest.raises(MissingTargets):
            ontology.born_deviation(ontology.model_from_dict(doc))


class TestOverlapTaxonomy:
    def test_complete_overlap(self, marbles):
        rep = ontology.overlap_classify(
            marbles.preparation("A"), marbles.preparation("B"), marbles.lam)
        assert rep.classification == ontology.OVERLAP_COMPLETE
        assert rep.overlap_mass == pytest.approx(0.75)
        assert rep.common_support_labels == ("G", "R", "B", "W")

    def test_no_overlap(self, marbles):
        rep = ontology.overlap_classify(
            marbles.preparation("C"), marbles.preparation("D"), marbles.lam)
        assert rep.classification == ontology.OVERLAP_NONE
        assert rep.overlap_mass == 0.0
        assert rep.common_support_labels == ()

    def test_partial_overlap(self, marbles):
        rep = ontology.overlap_classify(
            marbles.preparation("E"), marbles.preparation("F"), marbles.lam)
        assert rep.classification == ontology.OVERLAP_PARTIAL
        assert rep.overlap_mass == pytest.approx(0.25)
        assert rep.common_support_labels == ("R",)

    def test_symmetry(self, marbles):
        names = [p.name for p in marbles.preparations]
        for a in names:
            for b in names:
                r1 = ontology.overlap_classify(
                    marbles.preparation(a), marbles.preparation(b), marbles.lam)
                r2 = ontology.overlap_classify(
                    marbles.preparation(b), marbles.preparation(a), marbles.lam)
                assert r1.classification == r2.classification
                assert r1.overlap_mass == pytest.approx(r2.overlap_mass)

    def test_dimension_mismatch(self, marbles):
        short = ontology.EpistemicState(name="x", mu=(0.5, 0.5))
        with pytest.raises(DimensionMismatch):
            ontology.overlap_classify(short, marbles.preparation("A"), marbles.lam)


class TestInformationClass:
    def _submodel(self, marbles, names):
        return ontology.OntModel(
            lam=marbles.lam,
            preparations=tuple(marbles.preparation(n) for n in names),
            measurements=marbles.measurements,
        )

    def test_shared_support_is_minimal(self, marbles):
        info = ontology.information_class(self._submodel(marbles, ["A", "B"]))
        assert info.verdict == ontology.VERDICT_MINIMAL
        assert set(info.per_lambda["G"]) == {"A", "B"}

    def test_disjoint_support_is_non_minimal(self, marbles):
        info = ontology.information_class(self._submodel(marbles, ["C", "D"]))
        assert info.verdict == ontology.VERDICT_NON_MINIMAL
        assert info.per_lambda["G"] == ("C",)
        assert info.per_lambda["B"] == ("D",)

    def test_short_mu_is_dimension_mismatch(self, marbles):
        short = ontology.EpistemicState(name="x", mu=(1.0,))
        model = ontology.OntModel(lam=marbles.lam, preparations=(short,),
                                  measurements=marbles.measurements)
        with pytest.raises(DimensionMismatch):
            ontology.information_class(model)


class TestGasBridge:
    def test_small_gas_exact_probabilities(self):
        gm = ontology.gas_model(ensemble.GasSpec(n=3, m=3, e_units=2))
        probs = gm.outcome_probabilities_exact()
        assert probs == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
        assert gm.binnings == ((1, 2, 0), (2, 0, 1))
        assert gm.mu_exact == (Fraction(1, 2), Fraction(1, 2))

    @pytest.mark.parametrize("n,m,e", [(3, 3, 2), (5, 4, 7), (9, 4, 12), (12, 5, 20)])
    def test_integer_law_matches_rational_reference(self, n, m, e):
        # reference: sum over binnings of xi * mu, each a Fraction
        spec = ensemble.GasSpec(n=n, m=m, e_units=e)
        gm = ontology.gas_model(spec)
        states = ensemble.enumerate_binnings(spec)
        omegas = [ensemble.multiplicity(s) for s in states]
        mu = [Fraction(o, sum(omegas)) for o in omegas]
        law = tuple(sum((Fraction(s[i], n) * w for s, w in zip(states, mu)), Fraction(0))
                    for i in range(m))
        assert gm.outcome_probabilities_exact() == law
        assert gm.mu_exact == tuple(mu)
        model = gm.model
        assert model.preparations[0].mu == tuple(float(w) for w in mu)
        assert model.lam.labels == tuple(json.dumps(list(s)) for s in states)
        assert model.measurements[0].xi == tuple(tuple(s[i] / n for s in states)
                                                 for i in range(m))
        best = max(range(len(mu)), key=lambda j: (mu[j], -j))
        delta = max(abs(float(law[i] - Fraction(states[best][i], n))) for i in range(m))
        assert ontology.peak_approximation_delta(spec) == delta

    def test_model_floats_match_exact(self):
        gm = ontology.gas_model(ensemble.GasSpec(n=5, m=4, e_units=7))
        assert ontology.validate(gm.model) == []
        dist = ontology.outcome_distribution(
            gm.model, "T", "tagged-particle-energy")
        exact = [float(x) for x in gm.outcome_probabilities_exact()]
        assert list(dist) == pytest.approx(exact, abs=1e-14)

    def test_probabilities_sum_to_one(self):
        for n, m, e in [(3, 3, 2), (6, 4, 9), (10, 3, 12)]:
            gm = ontology.gas_model(ensemble.GasSpec(n=n, m=m, e_units=e))
            assert sum(gm.outcome_probabilities_exact()) == 1

    def test_mean_measured_energy_is_total_over_n(self):
        # tagging one particle at random: its mean energy is E/N, exactly
        for n, m, e in [(3, 3, 2), (6, 4, 9), (8, 5, 14)]:
            spec = ensemble.GasSpec(n=n, m=m, e_units=e)
            gm = ontology.gas_model(spec)
            mean = sum(Fraction(spec.eps0_units + i) * p
                       for i, p in enumerate(gm.outcome_probabilities_exact()))
            assert mean == Fraction(e, n)

    def test_peak_delta_small_fixture(self):
        # two argmax-tied states at (N=3, M=3, E=2); the lexicographic pick
        # (1,2,0) predicts 1/3 for the ground outcome against the exact 2/3
        spec = ensemble.GasSpec(n=3, m=3, e_units=2)
        assert ontology.peak_approximation_delta(spec) == pytest.approx(1.0 / 3.0)

    def test_peak_delta_shrinks_with_n(self):
        deltas = []
        for n in [3, 30, 150]:
            deltas.append(ontology.peak_approximation_delta(
                ensemble.GasSpec(n=n, m=3, e_units=(2 * n) // 3)))
        assert deltas[0] > deltas[1] > deltas[2]
        assert deltas[2] < 1e-3


class TestSerialization:
    def test_round_trip(self, marbles, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(ontology.model_to_dict(marbles)), encoding="utf-8")
        back = ontology.load_model(str(path))
        assert back == marbles

    def test_integer_past_float_range_loads_as_inf(self, marbles, tmp_path):
        doc = ontology.model_to_dict(marbles)
        doc["preparations"][0]["mu"][0] = 10 ** 400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        model = ontology.load_model(str(path))
        assert model.preparations[0].mu[0] == float("inf")
        viols = ontology.validate(model)
        assert [(v.message, v.magnitude) for v in viols] == [("non-finite mu entries", 1.0)]

    def test_schema_keys(self, marbles):
        doc = ontology.model_to_dict(marbles)
        assert set(doc) == {"lambda", "preparations", "measurements", "born_targets"}
        assert json.dumps(doc)  # JSON-serializable

    def test_targets_omitted_when_absent(self):
        gm = ontology.gas_model(ensemble.GasSpec(n=3, m=3, e_units=2))
        doc = ontology.model_to_dict(gm.model)
        assert "born_targets" not in doc
        assert ontology.model_from_dict(doc).born_targets is None


DELETE = object()


def _edited(doc, path: tuple, value):
    """doc with the value at path replaced (or deleted); the empty path replaces doc."""
    if not path:
        return value
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


class TestModelDocument:
    @pytest.mark.parametrize("path, value, message", [
        ((), [], "model must be an object, not list"),
        (("lambda",), DELETE, "model has no key 'lambda'"),
        (("lambda",), "GRBW", "model.lambda must be a list, not str"),
        (("lambda", 0), [1], "model.lambda[0] must be a string, not list"),
        (("preparations",), {}, "model.preparations must be a list, not dict"),
        (("preparations", 0), 3, "model.preparations[0] must be an object, not int"),
        (("preparations", 0, "mu"), DELETE, "model.preparations[0] has no key 'mu'"),
        (("preparations", 0, "mu"), 5, "model.preparations[0].mu must be a list, not int"),
        (("preparations", 1, "mu", 2), None,
         "model.preparations[1].mu[2] must be a number, not NoneType"),
        (("preparations", 0, "name"), 7, "model.preparations[0].name must be a string, not int"),
        (("measurements", 0, "xi"), 5, "model.measurements[0].xi must be a list, not int"),
        (("measurements", 0, "xi", 2), 5, "model.measurements[0].xi[2] must be a list, not int"),
        (("measurements", 0, "xi", 0, 1), "0",
         "model.measurements[0].xi[0][1] must be a number, not str"),
        (("measurements", 0, "outcomes"), {},
         "model.measurements[0].outcomes must be a list, not dict"),
        (("born_targets",), [], "model.born_targets must be an object, not list"),
        (("born_targets", "A"), 5, "model.born_targets.A must be an object, not int"),
        (("born_targets", "A", "color"), None,
         "model.born_targets.A.color must be a list, not NoneType"),
        (("preparations", 0, "mu", 0), True,
         "model.preparations[0].mu[0] must be a number, not bool"),
        (("measurements", 0, "xi", 1, 0), False,
         "model.measurements[0].xi[1][0] must be a number, not bool"),
        (("born_targets", "A", "color", 1), True,
         "model.born_targets.A.color[1] must be a number, not bool"),
    ])
    def test_wrong_shape_names_the_value(self, marbles, path, value, message):
        doc = _edited(ontology.model_to_dict(marbles), path, value)
        with pytest.raises(SchemaError) as exc:
            ontology.model_from_dict(doc)
        assert str(exc.value) == message

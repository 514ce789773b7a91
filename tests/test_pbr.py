"""Entangled-basis no-go bound for overlapping preparation distributions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from microcanon import ontology, pbr
from microcanon.errors import (
    DimensionMismatch,
    DomainError,
    NormalizationError,
    SizeLimit,
)


def highs_minimax(weights, pairs):
    """The minimax LP solved in floats by scipy's HiGHS: an independent
    oracle for pbr._minimax_lp.  Variables are the 4 x L response matrix
    (flattened) and the bound t; each column lies on the simplex."""
    weights = np.asarray(weights, dtype=float)
    n_out, n_lam = 4, weights.shape[1]
    n_var = n_out * n_lam + 1
    a_ub = np.zeros((len(pairs), n_var))
    for row, (p, k) in enumerate(pairs):
        a_ub[row, k * n_lam:(k + 1) * n_lam] = weights[p]
    a_ub[:, -1] = -1.0
    a_eq = np.hstack([np.tile(np.eye(n_lam), n_out), np.zeros((n_lam, 1))])
    c = np.zeros(n_var)
    c[-1] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(len(pairs)), A_eq=a_eq, b_eq=np.ones(n_lam),
                  bounds=[(0.0, 1.0)] * (n_out * n_lam) + [(0.0, None)], method="highs")
    assert res.success, res.message
    return res.fun


def assert_achieves(result, weights, pairs):
    """xi is column-stochastic and its worst forbidden probability is the value."""
    xi, weights = np.asarray(result.xi), np.asarray(weights, dtype=float)
    assert np.all(xi >= 0.0)
    assert np.allclose(xi.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
    worst = max(float(weights[p] @ xi[k]) for p, k in pairs)
    assert worst == pytest.approx(result.value, rel=1e-12, abs=1e-300)


def one_fully_charged(rng, n_lam):
    """Seeded 4 x n_lam weights (rows on the simplex) in which only the last
    joint state is charged by every outcome, with unequal charges; every
    other state leaves one outcome uncharged."""
    weights = rng.random((4, n_lam))
    for lam in range(n_lam - 1):
        weights[rng.integers(4), lam] = 0.0
    weights[:, -1] = rng.uniform(0.05, 1.0, size=4)
    return weights / weights.sum(axis=1, keepdims=True)


class TestKets:
    def test_normalization_enforced(self):
        with pytest.raises(NormalizationError):
            pbr.Ket((1 + 0j, 1 + 0j))

    @pytest.mark.parametrize("amplitudes", [(complex("nan"), 0j), (1 + 0j, complex("nan"))])
    def test_nan_norm_rejected(self, amplitudes):
        with pytest.raises(NormalizationError):
            pbr.Ket(amplitudes)

    @pytest.mark.parametrize("amplitudes", [(1e200 + 0j, 0j), (complex(1e308, 1e308),)])
    def test_overflowing_norm_rejected(self, amplitudes):
        # abs(z) ** 2 raises OverflowError where abs(z) * abs(z) would be inf
        with pytest.raises(NormalizationError, match=r"sums to inf$"):
            pbr.Ket(amplitudes)

    def test_inner_product(self):
        assert pbr.inner(pbr.KET0, pbr.KET1) == 0
        assert pbr.inner(pbr.KET0, pbr.KET_PLUS) == pytest.approx(1 / math.sqrt(2))
        assert pbr.inner(pbr.KET_PLUS, pbr.KET_MINUS) == pytest.approx(0.0, abs=1e-15)

    def test_inner_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            pbr.inner(pbr.KET0, pbr.tensor(pbr.KET0, pbr.KET0))

    def test_tensor_dim(self):
        assert pbr.tensor(pbr.KET0, pbr.KET_PLUS).dim == 4


class TestBasis:
    def test_orthonormal(self):
        basis = pbr.pbr_basis()
        gram = np.array([[pbr.inner(a, b) for b in basis.vectors]
                         for a in basis.vectors])
        assert np.allclose(gram, np.eye(4), atol=1e-12)

    def test_annihilation_diagonal(self):
        # outcome k is orthogonal to preparation k, and only to that one
        basis = pbr.pbr_basis()
        preps = pbr.product_preparations()
        for k, vec in enumerate(basis.vectors):
            for p, prep in enumerate(preps):
                overlap = abs(pbr.inner(vec, prep)) ** 2
                if p == k:
                    assert overlap <= 1e-12
                else:
                    assert overlap > 0.1

    def test_non_orthogonal_rejected(self):
        with pytest.raises(NormalizationError):
            pbr.MeasurementBasis(vectors=(pbr.KET0, pbr.KET_PLUS))

    def test_quantum_targets_table(self):
        # each row is a permutation of (0, 1/4, 1/4, 1/2) with the zero on
        # the diagonal and the 1/2 on the "mirror" outcome
        # the forbidden entries are exact zeros, which the LP witness relies on
        targets = pbr.quantum_targets()
        assert len(targets) == 4 and all(len(row) == 4 for row in targets)
        assert np.allclose([sum(row) for row in targets], 1.0, atol=1e-12)
        for p in range(4):
            assert targets[p][p] == 0.0
            assert targets[p][3 - p] == pytest.approx(0.5, abs=1e-12)
            others = [targets[p][k] for k in range(4) if k not in (p, 3 - p)]
            assert others == pytest.approx([0.25, 0.25], abs=1e-12)

    def test_forbidden_pairs_are_the_diagonal(self):
        assert pbr.forbidden_pairs() == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_quantum_targets_computed_once_and_read_only(self):
        targets = pbr.quantum_targets()
        assert pbr.quantum_targets() is targets
        with pytest.raises(TypeError):
            targets[0][0] = 1.0
        assert pbr.forbidden_pairs() == [(0, 0), (1, 1), (2, 2), (3, 3)]


class TestOverlapFamily:
    def test_overlap_mass_is_q(self):
        for q in [0.0, 0.3, 1.0]:
            fam = pbr.OverlapFamily(q=q)
            model = fam.single_model()
            rep = ontology.overlap_classify(
                model.preparation("0"), model.preparation("+"), model.lam)
            assert rep.overlap_mass == pytest.approx(q)
            if q == 0.0:
                assert rep.classification == ontology.OVERLAP_NONE
            elif q == 1.0:
                assert rep.classification == ontology.OVERLAP_COMPLETE
            else:
                assert rep.classification == ontology.OVERLAP_PARTIAL

    def test_q_domain(self):
        with pytest.raises(DomainError):
            pbr.OverlapFamily(q=-0.1)
        with pytest.raises(DomainError):
            pbr.OverlapFamily(q=1.1)

    def test_product_weights_are_outer_products(self):
        fam = pbr.OverlapFamily(q=0.4)
        weights = pbr.joint_weights(fam)
        assert len(weights) == 4 and all(len(row) == 9 for row in weights)
        singles = {"0": fam.mu_0, "+": fam.mu_plus}
        for r, name in enumerate(pbr.PREP_NAMES):
            left, right = name.split(",")
            assert np.allclose(
                weights[r], np.outer(singles[left], singles[right]).ravel())
            assert sum(weights[r]) == pytest.approx(1.0)


class TestMinimax:
    def test_quadratic_lower_bound_and_value(self):
        # the exact optimum is q^2/4: the four preparations put mass q^2 on
        # the doubly-shared joint state, and the best response splits it
        for q in [0.1, 0.25, 0.5, 0.75, 1.0]:
            val = pbr.min_forbidden_probability(q)
            assert val >= q * q / 4 - 1e-6
            assert val == pytest.approx(q * q / 4, abs=1e-9)

    def test_zero_overlap_reaches_zero(self):
        assert pbr.min_forbidden_probability(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_q(self):
        vals = [pbr.min_forbidden_probability(q / 10) for q in range(11)]
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 1e-12

    def test_lp_witness_is_column_stochastic(self):
        res = pbr.minimize_forbidden(0.5)
        assert len(res.xi) == 4 and all(len(row) == 9 for row in res.xi)
        xi = np.asarray(res.xi)
        assert np.all(xi >= -1e-9)
        assert np.allclose(xi.sum(axis=0), 1.0, atol=1e-9)

    @pytest.mark.parametrize("q", [0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
    def test_grid_upper_bounds_lp(self, q):
        lp = pbr.min_forbidden_probability(q, method="lp")
        for resolution in (4, 16, 50):
            grid = pbr.min_forbidden_probability(q, resolution=resolution,
                                                 method="grid")
            assert grid >= lp - 1e-12, resolution
            assert grid - lp <= 1.0 / resolution, resolution

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            pbr.min_forbidden_probability(0.5, method="annealing")

    @given(st.floats(min_value=0.0, max_value=1.0))
    # q * q is subnormal there, and rounding it before the division by 4
    # would round twice: 2e-323 instead of 1.5e-323
    @example(8.193333555969966e-162)
    @settings(max_examples=300, deadline=None)
    def test_value_is_the_correctly_rounded_quarter_square(self, q):
        assert pbr.min_forbidden_probability(q) == float(Fraction(q) ** 2 / 4)

    @pytest.mark.parametrize("q", [0.0, 1e-6, 0.05, 0.123, 0.37, 0.5, 0.731, 0.999, 1.0])
    def test_family_value_agrees_with_highs(self, q):
        weights = pbr.joint_weights(pbr.OverlapFamily(q=q))
        pairs = pbr.forbidden_pairs()
        result = pbr._minimax_lp(weights)
        assert result.value == pytest.approx(highs_minimax(weights, pairs), abs=1e-9)
        assert_achieves(result, weights, pairs)

    @pytest.mark.parametrize("seed", range(12))
    def test_one_fully_charged_state_agrees_with_highs(self, seed):
        rng = np.random.default_rng(seed)
        weights = one_fully_charged(rng, n_lam=int(rng.integers(1, 10)))
        pairs = pbr.forbidden_pairs()
        result = pbr._minimax_lp(weights)
        assert len(set(weights[:, -1])) == 4
        assert result.value > 0.0
        assert result.value == pytest.approx(highs_minimax(weights, pairs), abs=1e-9)
        assert_achieves(result, weights, pairs)

    def test_two_fully_charged_states_are_a_domain_error(self):
        weights = np.full((4, 3), 1.0 / 3)
        weights[0, 0] = 0.0
        weights[0, 1:] = 0.5
        with pytest.raises(DomainError):
            pbr._minimax_lp(weights)

    def test_grid_resolution_cap(self):
        assert pbr.MAX_GRID_RESOLUTION > 60
        with pytest.raises(SizeLimit):
            pbr.min_forbidden_probability(0.5, resolution=pbr.MAX_GRID_RESOLUTION + 1,
                                          method="grid")
        # the LP ignores the resolution
        assert pbr.min_forbidden_probability(0.5, resolution=10 ** 9) == 0.0625


class TestWitnessModel:
    def test_disjoint_case_reproduces_quantum_table(self):
        model = pbr.witness_model(0.0)
        assert ontology.validate(model) == []
        max_dev, _ = ontology.born_deviation(model)
        assert max_dev <= 1e-10
        info = ontology.information_class(model)
        assert info.verdict == ontology.VERDICT_NON_MINIMAL

    def test_overlapping_case_cannot_match_born(self):
        model = pbr.witness_model(0.5)
        assert ontology.validate(model) == []
        max_dev, _ = ontology.born_deviation(model)
        assert max_dev >= 0.5 * 0.5 / 4 - 1e-9
        info = ontology.information_class(model)
        assert info.verdict == ontology.VERDICT_MINIMAL

    @pytest.mark.parametrize("q", [1e-6, 0.5])
    def test_single_owner_columns_carry_the_born_row(self, q):
        # a joint state only one preparation weights answers as that
        # preparation would under quantum theory
        weights = pbr.joint_weights(pbr.OverlapFamily(q=q))
        xi = pbr.minimize_forbidden(q).xi
        targets = pbr.quantum_targets()
        owned = 0
        for lam in range(len(pbr.JOINT_LABELS)):
            owners = [p for p, row in enumerate(weights) if row[lam] > 0]
            if len(owners) == 1:
                owned += 1
                assert tuple(row[lam] for row in xi) == targets[owners[0]]
        assert owned == 4

    def test_small_overlap_deviates_from_born_by_order_q(self):
        # no jump at q = 0: the witness that meets the Born table there
        # moves off it continuously
        max_dev, _ = ontology.born_deviation(pbr.witness_model(1e-6))
        assert max_dev <= 2e-6

    def test_completeness_on_random_product_states(self):
        # the entangled basis resolves every two-qubit product state
        rng = np.random.default_rng(5)
        basis = pbr.pbr_basis()
        for _ in range(100):
            kets = []
            for _ in range(2):
                raw = rng.normal(size=2) + 1j * rng.normal(size=2)
                raw /= np.linalg.norm(raw)
                kets.append(pbr.Ket(tuple(raw)))
            probs = pbr.born_prob(pbr.tensor(*kets), basis)
            assert sum(probs) == pytest.approx(1.0, abs=1e-10)
            assert min(probs) >= -1e-12


class TestTradeoff:
    def test_passes_through_origin_and_monotone(self):
        assert pbr.SEARCH_TOL == 1e-9
        curve = pbr.epsilon_overlap_tradeoff(
            [0.0, 1e-20, 1e-14, 0.001, 0.005, 0.01, 0.037801, 0.0625, 0.1, 0.24, 0.25, 0.3],
            method="lp")
        assert curve[0] == (0.0, 0.0)
        qs = [q for _, q in curve]
        for a, b in zip(qs, qs[1:]):
            assert b >= a
        # min_forbidden(q) = q^2/4 inverts to q_max(eps) = min(1, 2 sqrt(eps)),
        # which the bisection brackets to within its search tolerance; q_max
        # is the bracket end whose overlap still meets eps
        for eps, q in curve:
            assert abs(q - min(1.0, 2.0 * math.sqrt(eps))) <= pbr.SEARCH_TOL
            assert pbr.min_forbidden_probability(q) <= eps

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            pbr.epsilon_overlap_tradeoff([0.2, 0.1])
        with pytest.raises(DomainError):
            pbr.epsilon_overlap_tradeoff([-0.1])
        with pytest.raises(DomainError):
            pbr.epsilon_overlap_tradeoff([float("nan")])
        with pytest.raises(DomainError):
            pbr.epsilon_overlap_tradeoff([0.1, float("nan")])

    def test_full_overlap_solved_once(self, monkeypatch):
        calls = []
        real = pbr.min_forbidden_probability
        monkeypatch.setattr(pbr, "min_forbidden_probability",
                            lambda q, *a: calls.append(q) or real(q, *a))
        curve = pbr.epsilon_overlap_tradeoff([0.01, 0.25, 0.5])
        assert [q for _, q in curve[1:]] == [1.0, 1.0]
        assert calls.count(1.0) == 1


class TestCatFixture:
    def test_frozen_amplitudes(self):
        fx = pbr.cat_fixture(0.6, 0.8)
        assert ontology.validate(fx.model) == []
        max_dev, _ = ontology.born_deviation(fx.model)
        assert max_dev == pytest.approx(0.0, abs=1e-12)
        for rep in fx.overlaps.values():
            assert rep.classification == ontology.OVERLAP_NONE
            assert rep.overlap_mass == 0.0
        info = ontology.information_class(fx.model)
        assert info.verdict == ontology.VERDICT_NON_MINIMAL

    def test_unnormalized_rejected(self):
        with pytest.raises(NormalizationError):
            pbr.cat_fixture(1.0, 1.0)

    @pytest.mark.parametrize("a, b", [(math.nan, 0.0), (0.6, complex(0.8, math.nan))])
    def test_nan_amplitude_rejected(self, a, b):
        with pytest.raises(NormalizationError):
            pbr.cat_fixture(a, b)

    @pytest.mark.parametrize("a, b", [(1e200, 0.0), (0.6, complex(1e308, 1e308))])
    def test_overflowing_amplitude_rejected(self, a, b):
        with pytest.raises(NormalizationError, match=r"= inf$"):
            pbr.cat_fixture(a, b)

    @given(st.floats(min_value=0.01, max_value=0.99),
           st.floats(min_value=0.0, max_value=2 * math.pi))
    @settings(max_examples=40, deadline=None)
    def test_random_amplitudes(self, wa, phase):
        # arbitrary complex amplitudes with |a|^2 + |b|^2 = 1
        a = math.sqrt(wa)
        b = math.sqrt(1 - wa) * complex(math.cos(phase), math.sin(phase))
        fx = pbr.cat_fixture(a, b)
        dist = ontology.outcome_distribution(
            fx.model, "superposition", "alive-dead")
        assert dist[0] == pytest.approx(wa, abs=1e-12)
        assert dist[1] == pytest.approx(1 - wa, abs=1e-12)
        assert all(rep.classification == ontology.OVERLAP_NONE
                   for rep in fx.overlaps.values())

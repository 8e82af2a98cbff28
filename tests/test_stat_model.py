"""Tests for the abstract sequential-measurement model."""

import json
import math

import numpy as np
import pytest

import seqmeas.stat_model as sm
from seqmeas.errors import InputError, ShapeError

LOG2 = math.log(2.0)


def trivial_model():
    return sm.SequentialModel(pi=[[1.0]], x=[1.0], x_tilde=[1.0])


def hand_model():
    """Two first outcomes, one second outcome, x(0) = 0.

    Pi(0|0) = Pi(0|1) = 1, x = (0, 1), x_tilde = (1/2): d = (1, 1),
    d~ = (2,), p = (0, 1), q = (1,), p~ = (1,), q~ = (1/2, 1/2).
    """
    return sm.SequentialModel(pi=[[1.0, 1.0]], x=[0.0, 1.0], x_tilde=[0.5])


def random_abstract_model(rng, n_first=None, n_second=None, zero_x=False, zero_x_tilde=False):
    """Random valid model, optionally with exact zero weights."""
    n_first = n_first or int(rng.integers(1, 6))
    n_second = n_second or int(rng.integers(1, 6))
    while True:
        pi = rng.random((n_second, n_first))
        pi *= rng.random((n_second, n_first)) < 0.85
        x = rng.random(n_first)
        if zero_x and n_first >= 2:
            x[rng.integers(n_first)] = 0.0
        x_tilde = rng.random(n_second)
        if zero_x_tilde and n_second >= 2:
            x_tilde[rng.integers(n_second)] = 0.0
        forward = (pi * x[np.newaxis, :]).sum()
        reverse = (pi * x_tilde[:, np.newaxis]).sum()
        if forward > 0.05 and reverse > 0.05:
            return sm.SequentialModel(pi=pi, x=x / forward, x_tilde=x_tilde / reverse)


class TestConstructionAndValidation:
    def test_trivial_model_is_valid(self):
        assert sm.validate_model(trivial_model()) == []

    def test_forward_violation_has_residual_one(self):
        model = sm.SequentialModel(pi=[[1.0]], x=[2.0], x_tilde=[1.0])
        violations = sm.validate_model(model)
        assert [v.constraint for v in violations] == ["forward_normalisation"]
        assert violations[0].residual == pytest.approx(1.0, abs=1e-15)

    def test_negative_entry_reported(self):
        model = sm.SequentialModel(pi=[[-0.5, 1.5]], x=[1.0, 1.0], x_tilde=[1.0])
        constraints = {v.constraint for v in sm.validate_model(model)}
        assert "pi_nonnegative" in constraints

    def test_non_finite_entry_reported(self):
        model = sm.SequentialModel(pi=[[1.0]], x=[math.inf], x_tilde=[1.0])
        constraints = {v.constraint for v in sm.validate_model(model)}
        assert "x_finite" in constraints

    def test_shape_mismatch_is_structural(self):
        with pytest.raises(ShapeError):
            sm.SequentialModel(pi=[[1.0]], x=[1.0, 1.0], x_tilde=[1.0])
        with pytest.raises(ShapeError):
            sm.SequentialModel(pi=[[1.0]], x=[1.0], x_tilde=[1.0, 1.0])
        with pytest.raises(ShapeError):
            sm.SequentialModel(pi=[1.0], x=[1.0], x_tilde=[1.0])

    def test_quantum_built_model_is_valid(self):
        from seqmeas.harness import _built, _draw_model, trial_rng

        for trial in range(25):
            model, _ = _built(_draw_model, trial_rng(11, "jcheck", trial), 4, trial % 3 == 0)
            assert sm.validate_model(model) == []
            # cross-check the two sums by direct summation
            forward = sum(
                model.pi[j, i] * model.x[i]
                for j in range(model.n_second)
                for i in range(model.n_first)
            )
            assert forward == pytest.approx(1.0, abs=1e-12)


class TestMarginals:
    def test_trivial_degeneracies(self):
        d, d_tilde = sm.degeneracy_marginals(trivial_model())
        assert d.tolist() == [1.0]
        assert d_tilde.tolist() == [1.0]

    def test_all_ones_degeneracies(self):
        model = sm.SequentialModel(
            pi=np.ones((2, 2)), x=[0.25, 0.25], x_tilde=[0.25, 0.25]
        )
        d, d_tilde = sm.degeneracy_marginals(model)
        assert d.tolist() == [2.0, 2.0]
        assert d_tilde.tolist() == [2.0, 2.0]

    def test_hand_model_marginals(self):
        ms = sm.marginal_set(hand_model())
        assert ms.p.tolist() == [0.0, 1.0]
        assert ms.q.tolist() == [1.0]
        assert ms.p_tilde.tolist() == [1.0]
        assert ms.q_tilde.tolist() == [0.5, 0.5]

    def test_marginal_identities_and_sums(self):
        rng = np.random.default_rng(5)
        for k in range(50):
            model = random_abstract_model(rng, zero_x=k % 3 == 0, zero_x_tilde=k % 4 == 0)
            ms = sm.marginal_set(model)
            np.testing.assert_allclose(ms.p, ms.d * model.x, atol=1e-15)
            np.testing.assert_allclose(ms.p_tilde, ms.d_tilde * model.x_tilde, atol=1e-15)
            for vec in (ms.p, ms.q, ms.p_tilde, ms.q_tilde):
                assert vec.sum() == pytest.approx(1.0, abs=1e-12)


class TestRegularizedExpectation:
    def test_constant_observable(self):
        rng = np.random.default_rng(8)
        for k in range(20):
            model = random_abstract_model(rng, zero_x=k % 2 == 0)
            c = np.broadcast_to(model.x[:, np.newaxis], (model.n_first, model.n_second))
            value = sm.expectation_regularized(model, sm.RatioObservable(c))
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_hand_model_branch_split(self):
        model = hand_model()
        # regularised branch (i=0): c * Pi = 1/2; standard branch (i=1):
        # P(1,0) * c / x(1) = 1 * 1/2 / 1 = 1/2
        c = np.broadcast_to(model.x_tilde, (2, 1))
        value = sm.expectation_regularized(model, sm.RatioObservable(c))
        assert value == pytest.approx(1.0, abs=1e-15)
        assert model.x_tilde[0] * model.pi[0, 0] == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sm.expectation_regularized(trivial_model(), sm.RatioObservable(np.ones((2, 2))))

    def test_non_finite_numerator_rejected(self):
        with pytest.raises(InputError):
            sm.RatioObservable(np.array([[math.nan]]))


class TestJEquation:
    def test_trivial(self):
        assert sm.j_equation_residual(trivial_model()) == 0.0
        assert sm.j_equation_reverse_residual(trivial_model()) == 0.0

    def test_hand_model_with_zero_weight(self):
        assert sm.j_equation_residual(hand_model()) < 1e-15

    def test_random_models(self):
        rng = np.random.default_rng(9)
        for k in range(200):
            model = random_abstract_model(rng, zero_x=k % 3 == 0, zero_x_tilde=k % 5 == 0)
            assert sm.j_equation_residual(model) < 1e-9
            assert sm.j_equation_reverse_residual(model) < 1e-9

    def test_reverse_is_forward_of_transposed_model(self):
        rng = np.random.default_rng(12)
        for k in range(200):
            model = random_abstract_model(rng, zero_x=k % 3 == 0, zero_x_tilde=k % 2 == 0)
            transposed = sm.SequentialModel(pi=model.pi.T, x=model.x_tilde, x_tilde=model.x)
            # the regularised reverse sum written out: P~(j,i) x(i)/x_tilde(j),
            # and x(i) Pi(j|i) where x_tilde(j) = 0
            pos = model.x_tilde > 0.0
            p_rows = model.pi[pos] * model.x_tilde[pos, np.newaxis]
            total = float((p_rows * model.x[np.newaxis, :] / model.x_tilde[pos, np.newaxis]).sum())
            if not pos.all():
                total += float((model.x[np.newaxis, :] * model.pi[~pos]).sum())
            reverse = sm.j_equation_reverse_residual(model)
            assert reverse == sm.j_equation_residual(transposed)
            assert reverse == abs(total - 1.0)

    def test_swap_symmetric_model(self):
        pi = np.array([[0.2, 0.3], [0.3, 0.4]])
        x = np.ones(2) / (pi.sum())
        model = sm.SequentialModel(pi=pi, x=x, x_tilde=x)
        forward = sm.j_equation_residual(model)
        reverse = sm.j_equation_reverse_residual(model)
        assert abs(forward - reverse) < 1e-14

    def test_jensen_direction(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            model = random_abstract_model(rng)
            p_forward = (model.pi * model.x[np.newaxis, :]).T
            mask = p_forward > 0
            ratio = model.x_tilde[np.newaxis, :] / model.x[:, np.newaxis]
            mean_log = float((p_forward[mask] * np.log(ratio[mask])).sum())
            assert mean_log <= 1e-10

    def test_log_tangent_bound(self):
        rng = np.random.default_rng(11)
        u = rng.uniform(0.0, 10.0, 1000)
        u = u[u > 0.0]
        assert (np.log(u) <= u - 1.0 + 1e-14).all()


class TestMinimalCase:
    def test_trivial(self):
        assert sm.minimal_x_tilde(trivial_model()).tolist() == [1.0]

    def test_hand_model(self):
        assert sm.minimal_x_tilde(hand_model()).tolist() == [0.5]

    def test_substitution_gives_p_tilde_equal_q(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            model = random_abstract_model(rng)
            substituted = sm.with_x_tilde(model, sm.minimal_x_tilde(model))
            assert sm.validate_model(substituted) == []
            ms = sm.marginal_set(substituted)
            np.testing.assert_allclose(ms.p_tilde, ms.q, rtol=1e-14, atol=1e-16)


class TestModifiedShannonEntropy:
    def test_uniform_two_outcomes(self):
        assert sm.modified_shannon_entropy([0.5, 0.5], [1.0, 1.0]) == pytest.approx(
            LOG2, abs=1e-15
        )

    def test_single_outcome_with_degeneracy(self):
        assert sm.modified_shannon_entropy([1.0], [2.0]) == pytest.approx(LOG2, abs=1e-15)

    def test_quarter_three_quarters(self):
        value = sm.modified_shannon_entropy([0.25, 0.75], [1.0, 1.0])
        assert value == pytest.approx(0.5623351446188084, abs=1e-15)

    def test_zero_terms_contribute_nothing(self):
        assert sm.modified_shannon_entropy([0.0, 1.0], [0.0, 2.0]) == pytest.approx(
            LOG2, abs=1e-15
        )

    def test_errors(self):
        with pytest.raises(InputError):
            sm.modified_shannon_entropy([-0.1, 1.1], [1.0, 1.0])
        with pytest.raises(InputError):
            sm.modified_shannon_entropy([1.0], [1.0, 1.0])
        with pytest.raises(InputError):
            sm.modified_shannon_entropy([0.5, 0.5], [1.0, 0.0])


class TestEntropyChain:
    def test_trivial(self):
        chain = sm.entropy_chain(trivial_model())
        assert (chain.h_p, chain.h_q, chain.cross) == (0.0, 0.0, 0.0)

    def test_hand_model(self):
        chain = sm.entropy_chain(hand_model())
        assert chain.h_p == pytest.approx(0.0, abs=1e-15)
        assert chain.h_q == pytest.approx(LOG2, abs=1e-15)
        assert chain.cross == pytest.approx(LOG2, abs=1e-15)

    def test_chain_inequalities(self):
        rng = np.random.default_rng(13)
        for k in range(200):
            model = random_abstract_model(rng, zero_x=k % 3 == 0)
            chain = sm.entropy_chain(model)
            assert chain.h_p <= chain.h_q + 1e-10
            assert chain.h_q <= chain.cross + 1e-10

    def test_minimal_substitution_closes_the_gap(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            model = random_abstract_model(rng)
            substituted = sm.with_x_tilde(model, sm.minimal_x_tilde(model))
            chain = sm.entropy_chain(substituted)
            assert abs(chain.h_q - chain.cross) < 1e-12

    def test_infinite_cross_term(self):
        model = sm.SequentialModel(
            pi=np.full((2, 2), 0.5), x=[0.5, 0.5], x_tilde=[0.0, 1.0]
        )
        assert sm.validate_model(model) == []
        chain = sm.entropy_chain(model)
        assert math.isinf(chain.cross)
        assert math.isfinite(chain.h_q)


class TestJson:
    def test_round_trip(self):
        model = hand_model()
        doc = json.loads(json.dumps(sm.model_to_json(model)))
        back = sm.model_from_json(doc)
        assert back.pi.tolist() == model.pi.tolist()
        assert back.x.tolist() == model.x.tolist()
        assert back.x_tilde.tolist() == model.x_tilde.tolist()

    def test_missing_key(self):
        with pytest.raises(InputError):
            sm.model_from_json({"pi": [[1.0]], "x": [1.0]})

    def test_non_numeric(self):
        with pytest.raises(InputError):
            sm.model_from_json({"pi": [["a"]], "x": [1.0], "x_tilde": [1.0]})

    @pytest.mark.parametrize(
        "doc",
        [
            {"pi": [[True]], "x": [1.0], "x_tilde": [1.0]},
            {"pi": [[1.0]], "x": [True], "x_tilde": [1.0]},
            {"pi": [[1.0]], "x": [1.0], "x_tilde": ["1"]},
            {"pi": [[1.0, 0.5], [0.5]], "x": [1.0, 1.0], "x_tilde": [1.0, 1.0]},
            {"pi": [[1.0, True]], "x": [0.0, 1.0], "x_tilde": [0.5]},
            {"pi": [[1.0, 1.0]], "x": [0, False], "x_tilde": [0.5]},
        ],
    )
    def test_booleans_strings_and_ragged_rows_rejected(self, doc):
        with pytest.raises(InputError):
            sm.model_from_json(doc)

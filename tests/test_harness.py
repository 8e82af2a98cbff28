"""Tests for the generators, the suite runner and failure replay."""

import concurrent.futures
import dataclasses
import decimal
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import golden_files
import seqmeas.entropy as ent
import seqmeas.harness as hn
import seqmeas.quantum as qm
import seqmeas.stat_model as sm
from seqmeas.entropy import von_neumann_entropy
from seqmeas.errors import ConfigError, InputError, InvalidOperatorError, SeqMeasError


class TestRandomDensity:
    def test_dim_one(self):
        rho = hn.random_density(1, rng=np.random.default_rng(0))
        np.testing.assert_allclose(rho.matrix, [[1.0]], atol=1e-15)

    def test_rank_one_is_pure(self):
        rho = hn.random_density(4, rank=1, rng=np.random.default_rng(1))
        assert von_neumann_entropy(rho) < 1e-12

    def test_full_rank_by_default(self):
        for seed in range(10):
            rho = hn.random_density(4, rng=np.random.default_rng(seed))
            assert float(np.linalg.eigvalsh(rho.matrix).min()) > 1e-12

    def test_invalid_rank(self):
        with pytest.raises(InputError):
            hn.random_density(3, rank=4, rng=np.random.default_rng(2))
        with pytest.raises(InputError):
            hn.random_density(3, rank=0, rng=np.random.default_rng(2))


class TestRandomUnitary:
    def test_unitarity(self):
        for dim in (1, 2, 5, 8):
            u = hn.random_unitary(dim, np.random.default_rng(3))
            dev = qm.max_abs(u.matrix.conj().T @ u.matrix - np.eye(dim))
            assert dev < 1e-12

    def test_determinism(self):
        a = hn.random_unitary(6, np.random.default_rng(4)).matrix
        b = hn.random_unitary(6, np.random.default_rng(4)).matrix
        np.testing.assert_array_equal(a, b)

    def test_dim_one_is_phase(self):
        u = hn.random_unitary(1, np.random.default_rng(5)).matrix
        assert abs(abs(u[0, 0]) - 1.0) < 1e-14


class TestRandomPvm:
    def test_trivial_family(self):
        fam = hn.random_pvm(3, [3], np.random.default_rng(6))
        assert len(fam) == 1
        assert fam.degeneracies.tolist() == [3]

    def test_rank_one_family(self):
        fam = hn.random_pvm(4, [1, 1, 1, 1], np.random.default_rng(7))
        assert fam.degeneracies.tolist() == [1, 1, 1, 1]

    def test_two_rank_two_blocks(self):
        fam = hn.random_pvm(4, [2, 2], np.random.default_rng(8))
        completeness = qm.max_abs(sum(fam.projectors) - np.eye(4))
        assert completeness < 1e-12

    def test_equals_validated_family(self):
        for ranks in ([1], [3], [1, 1, 1, 1], [2, 2], [1, 3, 2], [5, 1, 1, 1]):
            dim = sum(ranks)
            fam = hn.random_pvm(dim, ranks, np.random.default_rng(11))
            u = hn.random_unitary(dim, np.random.default_rng(11)).matrix
            projectors = []
            start = 0
            for r in ranks:
                p = u[:, start:start + r] @ u[:, start:start + r].conj().T
                projectors.append(0.5 * (p + p.conj().T))
                start += r
            ref = qm.ProjectorFamily(tuple(projectors))
            for got, want in zip(fam.projectors, ref.projectors, strict=True):
                assert np.array_equal(got, want)
            assert np.array_equal(fam.degeneracies, ref.degeneracies)

    def test_builds_no_unitary(self, monkeypatch):
        # Haar-QR columns are orthonormal by construction; a Unitary would check them
        calls = []
        original = qm.Unitary.__post_init__

        def counting(self):
            calls.append(1)
            original(self)

        monkeypatch.setattr(qm.Unitary, "__post_init__", counting)
        hn.random_pvm(4, [1, 3], np.random.default_rng(12))
        assert calls == []
        hn.random_unitary(4, np.random.default_rng(12))  # the patch counts
        assert calls == [1]

    def test_rank_sum_mismatch(self):
        with pytest.raises(InputError):
            hn.random_pvm(4, [2, 3], np.random.default_rng(9))

    @pytest.mark.parametrize("ranks", [[2.7, 2], [2, 1.5, 0.5], [True, 3], [np.True_, 3],
                                       ["2", 2], [0, 4], [-1, 5]], ids=repr)
    def test_rank_must_be_a_positive_integer(self, ranks):
        # int() would make [2.7, 2] the degeneracies [2, 2]
        with pytest.raises(InputError, match="positive integers"):
            hn.random_pvm(4, ranks, np.random.default_rng(9))

    def test_integral_float_rank_is_an_integer(self):
        fam = hn.random_pvm(4, [2.0, np.float64(1), np.int64(1)], np.random.default_rng(9))
        assert fam.degeneracies.tolist() == [2, 1, 1]

    def test_random_ranks_properties(self):
        rng = np.random.default_rng(10)
        for dim in range(1, 9):
            plain = hn.random_ranks(dim, rng, degenerate=False)
            assert plain == [1] * dim
            rich = hn.random_ranks(dim, rng, degenerate=True)
            assert sum(rich) == dim
            if dim >= 2:
                assert max(rich) >= 2


class TestGeneratorDistributions:
    """Moments of the seeded generator stacks, each within 5 standard errors of its exact value.

    A standard error is the sample's standard deviation over sqrt(draws); 5 of them
    leave a seeded run a margin far beyond chance, while a broken generator misses by
    tens of them (QR without its phase fix gives E|Tr U|^2 of about 1.35 at d = 2).
    """

    @staticmethod
    def assert_mean(samples, exact, what):
        mean = samples.mean()
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(mean - exact) < 5 * se, f"{what}: {mean} vs {exact} (standard error {se:.2g})"

    @staticmethod
    def gaussians(seed, n, rows, cols):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((n, rows, cols))
                + 1j * rng.standard_normal((n, rows, cols))) / math.sqrt(2)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_haar_trace_moments(self, d):
        """E|Tr U|^2 = 1 and E|Tr U^2|^2 = 2 for Haar U at d >= 2 (Mezzadri, Notices AMS
        54, 592 (2007): only QR with the positive-diagonal phase fix is Haar)."""
        us = hn._haar(self.gaussians(d, 4000, d, d))
        traces = np.trace(us, axis1=1, axis2=2)
        self.assert_mean(np.abs(traces) ** 2, 1.0, f"E|Tr U|^2 at d={d}")
        squares = np.trace(us @ us, axis1=1, axis2=2)
        self.assert_mean(np.abs(squares) ** 2, 2.0, f"E|Tr U^2|^2 at d={d}")

    @pytest.mark.parametrize("d, k", [(2, 2), (4, 4), (8, 3)])
    def test_gram_purity(self, d, k):
        """E Tr rho^2 = (d + k)/(dk + 1) for rho = G G†/Tr(G G†), G a d x k Gaussian."""
        rhos = hn._gram(self.gaussians(10 * d + k, 3000, d, k))
        purity = np.einsum("nab,nba->n", rhos, rhos).real
        self.assert_mean(purity, (d + k) / (d * k + 1), f"E Tr rho^2 at (d, k) = ({d}, {k})")


class TestConfig:
    def test_round_trip(self):
        config = hn.ExperimentConfig(seed=42, dims=(2, 3), trials=5, tol=1e-8,
                                     beta_values=(0.5,), check_set=("jcheck", "klein"))
        doc = json.loads(json.dumps(config.to_json()))
        assert hn.ExperimentConfig.from_json(doc) == config

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            hn.ExperimentConfig(dims=())
        with pytest.raises(ConfigError):
            hn.ExperimentConfig(dims=(0,))
        with pytest.raises(ConfigError):
            hn.ExperimentConfig(dims=(65,))
        with pytest.raises(ConfigError):
            hn.ExperimentConfig(trials=0)
        with pytest.raises(ConfigError):
            hn.ExperimentConfig(tol=-1.0)
        with pytest.raises(ConfigError):
            hn.ExperimentConfig(beta_values=())
        with pytest.raises(ConfigError):
            hn.ExperimentConfig(check_set=("nope",))
        with pytest.raises(ConfigError):
            hn.ExperimentConfig(seed=-1)
        with pytest.raises(ConfigError):
            hn.ExperimentConfig.from_json({"unknown_key": 1})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", True),
            ("trials", True),
            ("tol", True),
            ("dims", [2.7, 3]),
            ("dims", [True, 3]),
            ("dims", "23"),
            ("beta_values", 0.5),
            ("beta_values", [True]),
            ("check_set", "jcheck"),
            ("seed", 5.0),
            ("trials", np.bool_(True)),
            ("tol", math.inf),
            # integers beyond the float range
            pytest.param("beta_values", [10**400], id="beta_values-huge-int"),
            pytest.param("tol", 10**400, id="tol-huge-int"),
        ],
    )
    def test_malformed_json_values_rejected(self, key, value):
        # the same message from JSON and from Python
        with pytest.raises(ConfigError, match=f"{key} must"):
            hn.ExperimentConfig.from_json({key: value})
        with pytest.raises(ConfigError, match=f"{key} must"):
            hn.ExperimentConfig(**{key: value})

    def test_numpy_seed_and_trials_accepted(self):
        config = hn.ExperimentConfig(seed=np.int64(5), trials=np.uint16(3))
        assert config == hn.ExperimentConfig(seed=5, trials=3)
        assert type(config.seed) is int and type(config.trials) is int
        assert json.loads(json.dumps(config.to_json()))["seed"] == 5

    def test_integral_values_of_any_type_accepted(self):
        config = hn.ExperimentConfig(dims=np.arange(2, 5), beta_values=np.array([0.5]))
        assert config.dims == (2, 3, 4) and config.beta_values == (0.5,)
        assert hn.ExperimentConfig.from_json({"dims": [2.0, 3]}).dims == (2, 3)

    def test_trial_counts(self):
        config = hn.ExperimentConfig(trials=1000)
        assert hn.n_trials("jcheck", config) == 1000
        assert hn.n_trials("jarzynski", config) == 300
        assert hn.n_trials("dilation", config) == 300
        assert hn.n_trials("counterexample", config) == 1

    def test_dim_filters(self):
        def drawn_dims(name, key, dims):
            config = hn.ExperimentConfig(dims=dims)
            spec = hn.CHECK_SPECS[name]
            return {len(spec.generate(hn.trial_rng(3, name, t), config, t)[0][key]) for t in range(40)}

        assert drawn_dims("jarzynski", "h0", (2, 3, 4, 5, 6, 7, 8)) == {2, 3, 4, 5, 6}
        assert drawn_dims("dilation", "phi", (2, 3, 4, 5, 6, 7, 8)) == {2, 3}
        assert drawn_dims("jarzynski", "h0", (7, 8)) == drawn_dims("dilation", "phi", (7, 8)) == {2}


class TestDeterminism:
    def test_trial_rng_streams_are_stable(self):
        a = hn.trial_rng(99, "klein", 7).standard_normal(4)
        b = hn.trial_rng(99, "klein", 7).standard_normal(4)
        c = hn.trial_rng(99, "klein", 8).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_report_fingerprint_is_reproducible(self):
        config = hn.ExperimentConfig(seed=21, dims=(2, 3), trials=8)
        first = hn.run_suite(config)
        second = hn.run_suite(config)
        assert first.fingerprint() == second.fingerprint()
        assert first.passed and second.passed

    def test_chain_sees_the_jcheck_instances(self):
        config = hn.ExperimentConfig(seed=33, dims=(2, 4), trials=6)
        for trial in range(hn.n_trials("jcheck", config)):
            rng_a = hn.trial_rng(config.seed, "jcheck", trial)
            rng_b = hn.trial_rng(config.seed, "jcheck", trial)
            model_a, _ = hn.CHECK_SPECS["jcheck"].generate(rng_a, config, trial)
            model_b, _ = hn.CHECK_SPECS["chain"].generate(rng_b, config, trial)
            np.testing.assert_array_equal(model_a["model"].pi, model_b["model"].pi)


class TestRunCheck:
    def test_zero_x_trials_are_counted(self):
        config = hn.ExperimentConfig(seed=2, dims=(2, 3, 4), trials=25)
        outcome = hn.run_check("jcheck", config)
        assert outcome.passed
        assert outcome.counters["zero_x_trials"] >= 25 / 5

    def test_counterexample_check_is_fixed(self):
        config = hn.ExperimentConfig(seed=0, trials=3, check_set=("counterexample",))
        a = hn.run_check("counterexample", config)
        b = hn.run_check("counterexample", hn.ExperimentConfig(seed=77, trials=9,
                                                               check_set=("counterexample",)))
        assert a.trials == b.trials == 1
        assert a.residual_maxima == b.residual_maxima

    def test_counterexample_reference_is_the_closed_form(self):
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            closed = -sum(x * x.ln() for x in (decimal.Decimal(n) / 16 for n in (1, 3, 3, 9)))
        assert hn.COUNTEREXAMPLE_S_SIGMA == float(closed)  # correctly rounded
        config = hn.ExperimentConfig(seed=0, trials=1, check_set=("counterexample",))
        outcome = hn.run_check("counterexample", config)
        # the float S(sigma) is one rounding of four terms away, so within an ulp
        assert outcome.residual_maxima["s_sigma_dev"] <= math.ulp(hn.COUNTEREXAMPLE_S_SIGMA)
        assert outcome.tolerances["s_sigma_dev"] == 1e-12

    def test_mis_clustered_counterexample_fails_every_cluster_residual(self, monkeypatch):
        import seqmeas.entropy as ent

        rho, _ = ent.counterexample_pair()
        sigma = qm.DensityOperator(np.diag([1.0, 2.0, 3.0, 10.0]) / 16.0)
        monkeypatch.setattr(ent, "counterexample_pair", lambda: (rho, sigma))
        config = hn.ExperimentConfig(seed=0, trials=1, check_set=("counterexample",))
        outcome = hn.run_check("counterexample", config)
        assert not outcome.passed
        for key in ("sigma_cluster_dev", "q_dev", "p_tilde_dev"):
            assert outcome.residual_maxima[key] == math.inf, key

    def test_tol_override_forces_failures(self):
        config = hn.ExperimentConfig(seed=3, dims=(2, 3), trials=5, tol=1e-300,
                                     check_set=("klein",))
        outcome = hn.run_check("klein", config)
        assert not outcome.passed
        assert outcome.failures
        for check in (outcome,):
            assert (len(check.failures) == 0) == check.passed

    def test_failure_bundles_replay_exactly(self):
        config = hn.ExperimentConfig(seed=3, dims=(2, 3), trials=5, tol=1e-300,
                                     check_set=("klein",))
        outcome = hn.run_check("klein", config)
        bundle = json.loads(json.dumps(outcome.failures[0]))
        replayed = hn.replay_failure(bundle)
        for key, value in replayed.items():
            assert value == outcome.failures[0]["residuals"][key]

    def test_replay_every_check_kind(self, monkeypatch):
        spec = hn.CHECK_SPECS["dilation"]

        @qm._one_at_a_time
        def failing_fixed():
            return {**(yield from spec.fixed.steps()), "swap_sigma_dev": 1.0}

        # a failing fixed instance writes a trial -1 bundle, replayed through ``fixed``
        monkeypatch.setitem(
            hn.CHECK_SPECS, "dilation", dataclasses.replace(spec, fixed=failing_fixed)
        )
        config = hn.ExperimentConfig(seed=5, dims=(2, 3), trials=20, tol=1e-300)
        replayed_trials = {}
        for name in hn.CHECK_ORDER:
            for failure in hn.run_check(name, config).failures:
                replayed = hn.replay_failure(json.loads(json.dumps(failure)))
                assert {k: hn._json_float(v) for k, v in replayed.items()} == failure["residuals"]
                replayed_trials.setdefault(name, []).append(failure["trial"])
        assert set(replayed_trials) == set(hn.CHECK_ORDER)
        assert replayed_trials["dilation"] == [5, -1]

    def test_fixed_bundle_of_a_check_without_one_is_refused(self):
        with pytest.raises(InputError, match="no fixed instance"):
            hn.replay_failure({"check": "klein", "trial": -1, "inputs": {}})

    def test_nan_residual_is_the_maximum(self, monkeypatch, capsys):
        import dataclasses

        from seqmeas.cli import main

        spec = hn.CHECK_SPECS["klein"]

        @qm._one_at_a_time
        def nan_evaluate(rho, sigma):
            return {**(yield from spec.evaluate.steps(rho, sigma)), "klein_violation": math.nan}

        monkeypatch.setitem(
            hn.CHECK_SPECS, "klein", dataclasses.replace(spec, evaluate=nan_evaluate)
        )
        config = hn.ExperimentConfig(seed=1, dims=(2,), trials=3, check_set=("klein",))
        outcome = hn.run_check("klein", config)
        assert not outcome.passed
        assert math.isnan(outcome.residual_maxima["klein_violation"])
        assert math.isnan(outcome.max_residual)
        assert outcome.to_json()["max_residual"] == "nan"
        assert main(["klein", "--dims", "2", "--trials", "3", "--seed", "1"]) == 1
        line = next(l for l in capsys.readouterr().out.splitlines() if "klein_violation" in l)
        assert line.split()[-1] == "FAIL"

    def test_a_residual_no_trial_evaluated_reads_nan(self, monkeypatch):
        """Every jcheck draw raises, so no jcheck or chain trial is evaluated: every maximum
        reads NaN, not 0.0, and both checks fail with a bundle per trial."""
        spec = hn.CHECK_SPECS["jcheck"]

        def draw(rng, config, trial):
            raise InputError("synthetic draw failure")
            yield  # a generator function like every draw

        monkeypatch.setitem(hn.CHECK_SPECS, "jcheck", dataclasses.replace(spec, draw=draw))
        config = hn.ExperimentConfig(seed=1, dims=(2, 3), trials=4)
        outcomes = hn._run_group(map, 1, ("jcheck", "chain"), config)
        for outcome in outcomes:
            assert set(outcome.residual_maxima) == set(outcome.tolerances)
            assert all(math.isnan(v) for v in outcome.residual_maxima.values()), outcome.name
            assert not outcome.passed and len(outcome.failures) == 4
            assert outcome.to_json()["max_residual"] == "nan"

    def test_tol_override_leaves_verdict_gates(self, monkeypatch):
        import dataclasses

        config = hn.ExperimentConfig(seed=4, dims=(2,), trials=2, tol=2.0)
        for name in ("luders", "minimal"):
            tolerances = hn.run_check(name, config).tolerances
            assert tolerances["non_minimal_trials"] == 0.5
            assert all(v == 2.0 for k, v in tolerances.items() if k != "non_minimal_trials")
        spec = hn.CHECK_SPECS["counterexample"]

        @qm._one_at_a_time
        def judged_minimal():
            return {**(yield from spec.evaluate.steps()), "minimality_verdict": 1.0}

        monkeypatch.setitem(
            hn.CHECK_SPECS, "counterexample", dataclasses.replace(spec, evaluate=judged_minimal)
        )
        outcome = hn.run_check("counterexample", config)
        assert outcome.tolerances["minimality_verdict"] == 0.5
        assert not outcome.passed

    def test_tol_override_moves_fixed_gates(self):
        config = hn.ExperimentConfig(seed=4, dims=(2,), trials=2, tol=2.0)
        tolerances = hn.run_check("dilation", config).tolerances
        swap_keys = {"swap_sigma_dev", "swap_entropy_after", "swap_s1_dev", "swap_s2_dev",
                     "swap_s3_dev", "swap_chain_violation"}
        assert swap_keys < set(tolerances)
        assert all(v == 2.0 for v in tolerances.values())

    def test_trials_build_no_validated_family(self, monkeypatch):
        calls = []
        original = qm.ProjectorFamily.__post_init__

        def counting(self):
            calls.append(1)
            original(self)

        monkeypatch.setattr(qm.ProjectorFamily, "__post_init__", counting)
        config = hn.ExperimentConfig(seed=7, dims=(3, 4), trials=4)
        for name in ("luders", "jcheck"):
            spec = hn.CHECK_SPECS[name]
            inputs, _ = spec.generate(hn.trial_rng(config.seed, name, 1), config, 1)
            spec.evaluate(**inputs)
        assert calls == []
        qm.ProjectorFamily((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))  # the patch counts
        assert calls == [1]

    def test_trials_check_no_invariant_twice(self, monkeypatch):
        """Each check run in process (pool workers would not see the spies): no checked
        ``Unitary`` but dilation's fixed SWAP, no ``validate_model`` or ``RatioObservable``,
        one ``SequentialModel`` per built model and one more per zero-x trial, and no
        Hermiticity check of the entropy checks' density operators."""
        calls = dict.fromkeys(("Unitary", "SequentialModel", "RatioObservable", "validate_model",
                               "hermitian_eigendecomposition"), 0)

        def spy(name, original):
            def counting(*args):
                calls[name] += 1
                return original(*args)
            return counting

        for cls in (qm.Unitary, sm.SequentialModel, sm.RatioObservable):
            monkeypatch.setattr(cls, "__post_init__", spy(cls.__name__, cls.__post_init__))
        monkeypatch.setattr(sm, "validate_model", spy("validate_model", sm.validate_model))
        hermitian = spy("hermitian_eigendecomposition", qm.hermitian_eigendecomposition)
        for module in (qm, ent):  # wherever the name is bound
            if hasattr(module, "hermitian_eigendecomposition"):
                monkeypatch.setattr(module, "hermitian_eigendecomposition", hermitian)
        config = hn.ExperimentConfig(seed=7, dims=(2, 3, 4), trials=10)
        zero_x_trials = 0
        for name in hn.CHECK_ORDER:
            calls.update(dict.fromkeys(calls, 0))
            outcome = hn.run_check(name, config)
            assert outcome.passed, name
            built = hn.n_trials(name, config) if name in ("jcheck", "chain", "jarzynski") else 0
            zero_x_trials += outcome.counters.get("zero_x_trials", 0)
            assert calls["SequentialModel"] == built + outcome.counters.get("zero_x_trials", 0)
            assert calls["Unitary"] == (name == "dilation"), name
            assert calls["validate_model"] == calls["RatioObservable"] == 0, name
            if name in ("klein", "luders", "minimal", "counterexample"):
                assert calls["hermitian_eigendecomposition"] == 0, name
        assert zero_x_trials > 0  # the zero-x copies were counted

    def test_replay_validates_a_tampered_family(self):
        config = hn.ExperimentConfig(seed=5, dims=(3,), trials=2, tol=1e-300,
                                     check_set=("luders",))
        bundle = hn.run_check("luders", config).failures[0]
        entries = bundle["inputs"]["projectors"]["vectors"]["entries"]
        for row in entries:
            for pair in row:
                pair[0] *= 1.01
                pair[1] *= 1.01
        with pytest.raises(InvalidOperatorError):
            hn.replay_failure(json.loads(json.dumps(bundle)))

    def test_entropy_trials_decompose_each_operator_once(self, monkeypatch):
        """klein: rho and sigma, whose decompositions also give S(rho||rho); luders and
        minimal: rho and its Lueders image.  Two matrices reach ``eigh`` per trial."""
        config = hn.ExperimentConfig(seed=7, dims=(3, 4), trials=4)
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
        for name in ("luders", "minimal", "klein"):
            spec = hn.CHECK_SPECS[name]
            inputs, _ = spec.generate(hn.trial_rng(config.seed, name, 1), config, 1)
            shapes.clear()
            spec.evaluate(**inputs)
            assert sum(math.prod(shape[:-2]) for shape in shapes) == 2, name

    def test_replay_rejects_malformed_bundles(self):
        with pytest.raises(InputError):
            hn.replay_failure({"inputs": {}})
        with pytest.raises(InputError):
            hn.replay_failure({"check": "nope", "inputs": {}})

    @pytest.fixture(scope="class")
    def bundles(self):
        """The first failure bundle of klein, jarzynski, dilation and luders, as JSON text."""
        config = hn.ExperimentConfig(seed=5, dims=(2,), trials=10, tol=1e-300)
        names = ("klein", "jarzynski", "dilation", "luders")
        return {name: json.dumps(hn.run_check(name, config).failures[0]) for name in names}

    @pytest.mark.parametrize("name, key", [("jarzynski", "u"), ("dilation", "u_total")])
    def test_replay_validates_a_tampered_unitary(self, bundles, name, key):
        bundle = json.loads(bundles[name])
        for row in bundle["inputs"][key]["entries"]:
            for pair in row:
                pair[0] *= 1.01
                pair[1] *= 1.01
        with pytest.raises(InvalidOperatorError) as raised:
            hn.replay_failure(bundle)
        assert raised.value.constraint == "unitary"

    @pytest.mark.parametrize("weights, reads_nan", [("x", "j_reverse_residual"),
                                                    ("x_tilde", "j_residual")])
    def test_a_nan_weight_fails_its_jcheck_record(self, weights, reads_nan):
        # the residuals read the model's arrays: NaN meets the NaN-failing gate
        model = sm.SequentialModel(**{"pi": np.full((2, 2), 0.5), "x": [0.5, 0.5],
                                      "x_tilde": [0.5, 0.5], weights: [math.nan, 0.5]})
        residuals = hn.evaluate_jcheck(model)
        assert math.isnan(residuals[reads_nan])
        gates = hn._gates(hn.CHECK_SPECS["jcheck"].tolerances, None)
        bundle = {"check": "jcheck", "trial": 0}
        assert hn._trial_record(gates, bundle, ({"model": model}, {}), residuals)[2] is not None

    @pytest.mark.parametrize(
        "name, tamper",
        [
            ("klein", lambda b: b["inputs"].pop("sigma")),
            ("klein", lambda b: b["inputs"].update(extra=1)),
            ("klein", lambda b: b.update(inputs="x")),
            ("klein", lambda b: b.update(check=["klein"])),
            ("jarzynski", lambda b: b["inputs"].update(beta="10")),
            ("jarzynski", lambda b: b["inputs"].update(beta=True)),
            ("jarzynski", lambda b: b["inputs"].update(beta=[10.0])),
            ("dilation", lambda b: b["inputs"].update(phi=[["ab"], [0.0, 0.0]])),
            ("dilation", lambda b: b["inputs"].update(phi=[[True, False], [False, False]])),
            ("dilation", lambda b: b["inputs"].update(phi=[1.0, 0.0])),
            ("klein", lambda b: b["inputs"]["rho"].update(junk=2)),
            ("luders", lambda b: b["inputs"].update(projectors=5)),
            ("luders", lambda b: b["inputs"].update(projectors=None)),
            ("luders", lambda b: b["inputs"].update(projectors="ab")),
            ("luders", lambda b: b["inputs"].update(projectors=b["inputs"]["rho"])),
        ],
        ids=[
            "missing-key", "extra-key", "inputs-not-object", "check-unhashable",
            "beta-string", "beta-bool", "beta-list", "phi-string", "phi-bools", "phi-flat",
            "matrix-extra-key", "projectors-number", "projectors-null", "projectors-string",
            "projectors-one-matrix",
        ],
    )
    def test_replay_refuses_malformed_inputs(self, bundles, name, tamper):
        bundle = json.loads(bundles[name])
        hn.replay_failure(json.loads(bundles[name]))  # the untouched bundle replays
        tamper(bundle)
        with pytest.raises(InputError):
            hn.replay_failure(bundle)

    def test_broken_instance_aborts_trial_not_run(self, monkeypatch):
        import dataclasses

        spec = hn.CHECK_SPECS["klein"]

        def broken_draw(rng, config, trial):
            if trial == 1:
                raise InputError("synthetic generation failure")
            return (yield from spec.draw(rng, config, trial))

        monkeypatch.setitem(
            hn.CHECK_SPECS, "klein", dataclasses.replace(spec, draw=broken_draw)
        )
        config = hn.ExperimentConfig(seed=1, dims=(2,), trials=3, check_set=("klein",))
        outcome = hn.run_check("klein", config)
        assert not outcome.passed
        assert len(outcome.failures) == 1
        bundle = outcome.failures[0]
        assert bundle["trial"] == 1
        assert "synthetic generation failure" in bundle["error"]
        assert bundle["seed_derivation"][0] == 1 and bundle["seed_derivation"][2] == 1
        with pytest.raises(InputError, match="regenerate from its seed_derivation"):
            hn.replay_failure(bundle)


class TestRunSuite:
    def test_small_suite_passes(self):
        config = hn.ExperimentConfig(seed=6, dims=(2, 3, 4), trials=12)
        report = hn.run_suite(config)
        assert report.passed
        assert [c.name for c in report.checks] == list(hn.CHECK_ORDER)
        for check in report.checks:
            assert check.passed and not check.failures
            assert all(math.isfinite(v) for v in check.residual_maxima.values())

    def test_check_subset_runs_in_canonical_order(self):
        config = hn.ExperimentConfig(seed=6, dims=(2,), trials=3,
                                     check_set=("dilation", "jcheck"))
        report = hn.run_suite(config)
        assert [c.name for c in report.checks] == ["jcheck", "dilation"]

    def test_report_json_is_serialisable(self):
        config = hn.ExperimentConfig(seed=8, dims=(2,), trials=3)
        report = hn.run_suite(config)
        doc = json.loads(json.dumps(report.to_json()))
        assert doc["passed"] is True
        assert {c["name"] for c in doc["checks"]} == set(hn.CHECK_ORDER)
        assert doc["config"]["seed"] == 8


def _counting_spec(monkeypatch, name, calls, **raising):
    """Replace ``name``'s spec by one that counts draws; ``raising`` picks a stage
    (``generate`` or ``evaluate``) and the trial on which it raises.  A chunk's
    draws all run before its evaluations, so the evaluated trial is read from
    the model its draw built."""
    import dataclasses

    spec = hn.CHECK_SPECS[name]
    trial_of = {}

    def draw(rng, config, trial):
        calls.append((name, trial))
        if raising.get("generate") == trial:
            raise InputError("synthetic generation failure")
        inputs, counters = yield from spec.draw(rng, config, trial)
        trial_of[id(inputs["model"])] = trial
        return inputs, counters

    @qm._one_at_a_time
    def evaluate(**inputs):
        if raising.get("evaluate") == trial_of.get(id(inputs["model"]), -1):
            raise InputError("synthetic evaluation failure")
        return (yield from spec.evaluate.steps(**inputs))

    monkeypatch.setitem(
        hn.CHECK_SPECS, name, dataclasses.replace(spec, draw=draw, evaluate=evaluate)
    )


class TestStreamGroups:
    """``jcheck`` and ``chain`` share one stream: each model is generated once."""

    CONFIG = hn.ExperimentConfig(seed=33, dims=(2, 4), trials=6, check_set=("jcheck", "chain"))

    @pytest.fixture(autouse=True)
    def in_process(self, monkeypatch):
        monkeypatch.setattr(hn, "_cpu_count", lambda: 1)

    def test_suite_generates_each_instance_once(self, monkeypatch):
        calls = []
        _counting_spec(monkeypatch, "jcheck", calls)
        _counting_spec(monkeypatch, "chain", calls)
        report = hn.run_suite(self.CONFIG)
        assert calls == [("jcheck", trial) for trial in range(6)]
        assert [c.name for c in report.checks] == ["jcheck", "chain"] and report.passed
        calls.clear()
        hn.run_check("chain", self.CONFIG)
        assert calls == [("chain", trial) for trial in range(6)]

    def test_shared_models_give_the_separate_outcomes(self):
        report = hn.run_suite(self.CONFIG)
        alone = [hn.run_check(name, self.CONFIG) for name in ("jcheck", "chain")]
        for shared, own in zip(report.checks, alone):
            assert shared.residual_maxima == own.residual_maxima
            assert shared.counters == own.counters
        assert report.checks[1].counters["zero_x_trials"] > 0

    def test_evaluation_error_fails_its_check_only(self, monkeypatch):
        _counting_spec(monkeypatch, "jcheck", [], evaluate=2)
        jcheck, chain = hn.run_suite(self.CONFIG).checks
        assert [(f["trial"], f["error"]) for f in jcheck.failures] == [
            (2, "InputError: synthetic evaluation failure")
        ]
        assert chain.passed and not chain.failures

    def test_generation_error_fails_every_check(self, monkeypatch):
        _counting_spec(monkeypatch, "jcheck", [], generate=3)
        jcheck, chain = hn.run_suite(self.CONFIG).checks
        assert [f["check"] for f in jcheck.failures + chain.failures] == ["jcheck", "chain"]
        assert jcheck.failures[0]["seed_derivation"] == chain.failures[0]["seed_derivation"]
        assert jcheck.failures[0]["seed_derivation"] == [33, 0, 3]
        assert "synthetic generation failure" in chain.failures[0]["error"]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_durations_are_not_counted_twice(self, monkeypatch, cpus):
        monkeypatch.setattr(hn, "_cpu_count", lambda: cpus)
        report = hn.run_suite(hn.ExperimentConfig(seed=21, dims=(2, 3), trials=8))
        assert all(c.duration_seconds > 0 for c in report.checks)
        assert sum(c.duration_seconds for c in report.checks) <= report.duration_seconds


#: each randomised check's stream group, the first name drawing for the group
STREAM_GROUPS = [("jcheck", "chain"), ("klein",), ("luders",), ("minimal",), ("jarzynski",),
                 ("dilation",)]


def _record_bits(records) -> dict:
    """Records with every residual and counter as ``float.hex``, bundles as canonical JSON."""
    def hexed(values):
        return {k: float(v).hex() for k, v in values.items()}

    return {
        name: [(hexed(res), hexed(counters), json.dumps(bundle, sort_keys=True))
               for res, counters, bundle in rs]
        for name, rs in records.items()
    }


def _input_bits(value):
    """dtype, shape, bytes and write flag of every array an instance input holds."""
    if isinstance(value, qm.DensityOperator):
        return _input_bits(value.matrix), _input_bits(value.spectrum)
    if isinstance(value, qm.ProjectorFamily):
        projectors = [_input_bits(p) for p in value.projectors]
        return _input_bits(value.stack), projectors, _input_bits(value.degeneracies)
    if isinstance(value, qm.Unitary):
        return _input_bits(value.matrix)
    if isinstance(value, sm.SequentialModel):
        return _input_bits(value.pi), _input_bits(value.x), _input_bits(value.x_tilde)
    if isinstance(value, np.ndarray):
        return str(value.dtype), value.shape, value.tobytes(), value.flags.writeable
    return float(value).hex()


class TestBatchedGeneration:
    """A chunk's draws are built a stack per array shape; no chunking moves a bit."""

    CONFIG = dict(seed=41, dims=(2, 3, 5, 16), trials=20)

    @pytest.mark.parametrize("tol", [None, 1e-300])
    @pytest.mark.parametrize("names", STREAM_GROUPS, ids="-".join)
    def test_chunking_never_moves_bits(self, names, tol):
        config = hn.ExperimentConfig(**self.CONFIG, tol=tol)
        trials = range(hn.n_trials(names[0], config))
        whole = _record_bits(hn._trial_records(names, config, trials)[0])
        if tol is not None:
            assert any(bundle != "null" for _, _, bundle in whole[names[0]])
        for size in (1, 3, 7):
            parts = [hn._trial_records(names, config, trials[lo:lo + size])[0]
                     for lo in range(0, len(trials), size)]
            chunked = {name: [r for part in parts for r in part[name]] for name in names}
            assert _record_bits(chunked) == whole, size

    @pytest.mark.parametrize("name", [names[0] for names in STREAM_GROUPS if len(names) == 1]
                             + ["jcheck", "chain"])
    def test_generate_is_the_batched_build(self, name):
        config = hn.ExperimentConfig(**self.CONFIG)
        spec = hn.CHECK_SPECS[name]
        stream = spec.rng_alias or name
        trials = range(hn.n_trials(name, config))
        assert all(inspect.isgeneratorfunction(s.draw) for s in hn.CHECK_SPECS.values())
        draws = [spec.draw(hn.trial_rng(config.seed, stream, t), config, t) for t in trials]
        for trial, (inputs, counters) in zip(trials, hn._build(draws)):
            alone, alone_counters = spec.generate(hn.trial_rng(config.seed, stream, trial),
                                                  config, trial)
            assert counters == alone_counters
            assert inputs.keys() == alone.keys()
            for key in inputs:
                assert _input_bits(inputs[key]) == _input_bits(alone[key]), (trial, key)

    @pytest.mark.parametrize("names", STREAM_GROUPS + [("counterexample",)], ids="-".join)
    def test_suite_residuals_are_each_trial_evaluated_alone(self, names, monkeypatch):
        """A batch is evaluated side by side, bit for bit as ``evaluate`` on each trial alone;
        the fixed instance that ``_outcome`` folds as trial -1, bit for bit as ``fixed``."""
        def hexed(values):
            return {k: float(v).hex() for k, v in values.items()}

        config = hn.ExperimentConfig(**self.CONFIG)
        stream = hn.CHECK_SPECS[names[0]].rng_alias or names[0]
        trials = range(hn.n_trials(names[0], config))
        records = hn._trial_records(names, config, trials)[0]
        folded = []
        record = hn._trial_record
        monkeypatch.setattr(
            hn, "_trial_record", lambda *args: folded.append(record(*args)) or folded[-1]
        )
        for name in names:
            spec = hn.CHECK_SPECS[name]
            for trial, (residuals, _, _) in zip(trials, records[name]):
                inputs, _ = spec.generate(hn.trial_rng(config.seed, stream, trial), config, trial)
                assert hexed(residuals) == hexed(spec.evaluate(**inputs)), (name, trial)
            folded.clear()
            hn._outcome(name, config, records[name])
            if spec.fixed is None:
                assert folded == []
            else:
                ((residuals, _, _),) = folded
                assert hexed(residuals) == hexed(spec.fixed()), name

    @pytest.mark.parametrize("name", ["klein", "luders"])
    def test_eigh_calls_do_not_grow_with_the_batch(self, monkeypatch, name):
        config = hn.ExperimentConfig(seed=41, dims=(3,), trials=40)
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
        counts = {}
        for n in (1, 40):
            shapes.clear()
            hn._trial_records((name,), config, range(n))
            counts[n] = list(shapes)
        assert counts == {1: [(2, 3, 3)], 40: [(80, 3, 3)]}  # one for rho and sigma

    def test_densities_of_every_rank_share_one_check(self, monkeypatch):
        """Klein's densities of one d are checked in one stack per round, whatever their ranks."""
        config = hn.ExperimentConfig(seed=41, dims=(3,), trials=40)
        spec = hn.CHECK_SPECS["klein"]
        draws = [spec.draw(hn.trial_rng(config.seed, "klein", t), config, t) for t in range(40)]
        shapes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
        built = hn._build(draws)
        assert len({np.linalg.matrix_rank(inputs["rho"].matrix) for inputs, _ in built}) > 1
        assert shapes == [(40, 3, 3), (40, 3, 3)]

    def test_generate_follows_a_replaced_draw(self):
        spec = hn.CHECK_SPECS["klein"]

        def draw(rng, config, trial):
            raise InputError("synthetic draw failure")

        replaced = dataclasses.replace(spec, draw=draw)
        with pytest.raises(InputError, match="synthetic draw failure"):
            replaced.generate(hn.trial_rng(1, "klein", 0), hn.ExperimentConfig(), 0)
        assert dataclasses.replace(spec, generate=print).generate is print

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("names", STREAM_GROUPS, ids="-".join)
    def test_a_nan_block_fails_its_trial_alone(self, monkeypatch, names):
        config = hn.ExperimentConfig(seed=43, dims=(2, 3, 4), trials=20)
        spec = hn.CHECK_SPECS[names[0]]
        stream = spec.rng_alias or names[0]
        trials = range(hn.n_trials(names[0], config))
        bad = trials[len(trials) // 2]
        clean = _record_bits(hn._trial_records(names, config, trials)[0])

        gaussian = hn._gaussian
        poison = []

        def nan_first_block(rng, rows, cols):
            block = gaussian(rng, rows, cols)  # the stream moves on as it would
            return np.full_like(block, np.nan) if poison and poison.pop() else block

        def draw(rng, config, trial):
            poison[:] = [trial == bad]
            return (yield from spec.draw(rng, config, trial))

        monkeypatch.setattr(hn, "_gaussian", nan_first_block)
        monkeypatch.setitem(hn.CHECK_SPECS, names[0], dataclasses.replace(spec, draw=draw))
        records = _record_bits(hn._trial_records(names, config, trials)[0])
        for name in names:
            try:  # the trial alone: its draw built as a batch of one, then evaluated
                inputs, _ = hn._built(draw, hn.trial_rng(config.seed, stream, bad), config, bad)
                hn.CHECK_SPECS[name].evaluate(**inputs)
                expected = None
            except (SeqMeasError, np.linalg.LinAlgError) as exc:
                expected = f"{type(exc).__name__}: {exc}"
            assert expected is not None
            failed = json.loads(records[name][bad][2])
            assert failed["trial"] == bad and failed["error"] == expected
            assert records[name][:bad] == clean[name][:bad]
            assert records[name][bad + 1:] == clean[name][bad + 1:]

    @pytest.mark.parametrize("name, n", [("jcheck", 8), ("luders", 4)])
    def test_a_batch_at_d64_peaks_as_one_trial(self, name, n):
        """A d = 64 family stack is 4 MiB, so a run must not hold one for each trial."""
        config = hn.ExperimentConfig(seed=3, dims=(64,), trials=n)

        def peak(run, *args):
            tracemalloc.start()
            try:
                run(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        alone = max(peak(hn._trial_records, (name,), config, range(t, t + 1)) for t in range(n))
        assert peak(hn.run_check, name, config) < 1.1 * alone

    @pytest.mark.parametrize("dims, trials, sizes", [
        ((64,), 8, {1: 1, 2: 1}),             # d = 64: one trial per chunk
        ((2, 16), 1000, {1: 32, 2: 32}),      # d = 16: 256 / 8
        ((2, 8), 5000, {1: 256, 2: 256}),     # d <= 8: at most 256
        ((2, 8), 300, {1: 75, 2: 38}),        # otherwise four chunks per worker
    ])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_group_bounds_each_chunk(self, monkeypatch, dims, trials, sizes, workers):
        """``_run_group`` hands ``_trial_records`` each trial once, in order, in chunks whose
        size falls with d**3, so a chunk's memory stays bounded."""
        config = hn.ExperimentConfig(seed=3, dims=dims, trials=trials)
        chunks = []

        def spy(names, config, trials):
            chunks.append(trials)
            return {names[0]: [({}, {}, None)] * len(trials)}, {names[0]: 0.0}

        monkeypatch.setattr(hn, "_trial_records", spy)
        hn._run_group(map, workers, ("klein",), config)
        assert [t for chunk in chunks for t in chunk] == list(range(trials))
        assert max(map(len, chunks)) == sizes[workers]


def _in_process_fingerprint(config) -> str:
    """SHA-256 of the fingerprint of a report built from in-process ``run_check`` calls."""
    checks = [hn.run_check(name, config) for name in hn.CHECK_ORDER if name in config.check_set]
    report = hn.ExperimentReport(config, checks, 0.0, all(c.passed for c in checks))
    return _sha256(report.fingerprint())


def _sha256(text: str) -> str:
    # digests keep a failed comparison from diffing megabytes of JSON
    return hashlib.sha256(text.encode()).hexdigest()


def _worker_identity(_) -> tuple:
    """A worker's pid, its parent's pid and its BLAS thread-count settings."""
    return os.getpid(), os.getppid(), tuple(map(os.environ.get, hn._BLAS_THREAD_VARS))


def _blas_build() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def _assert_golden(name: str, fresh: str) -> None:
    """Fail with the first lines of the diff unless ``fresh`` is golden file ``name``, byte for
    byte; only a change under the README's last-bit policy may regenerate the file."""
    diff = golden_files.diff(name, fresh)
    if diff:
        pytest.fail(
            f"the last bits of tests/golden/{name} moved (numpy {np.__version__}, BLAS "
            f"{_blas_build()}); a kernel change or another numpy/BLAS build computes different "
            f"floats:\n{diff}",
            pytrace=False,
        )


def test_fingerprint_is_pinned():
    report = golden_files.suite_report()
    _assert_golden("suite_fingerprint.json", golden_files.text(json.loads(report.fingerprint())))


def test_failure_bundles_are_pinned():
    # 89 bundles covering every check and every trial-input kind
    failures = golden_files.failure_bundles()
    assert {f["check"] for f in failures} == set(hn.CHECK_ORDER)
    assert {k for f in failures for k in f["inputs"]} == {
        "model", "rho", "sigma", "projectors", "ancilla_projectors",
        "u", "u_total", "h0", "h1", "beta", "phi",
    }
    _assert_golden("failure_bundles.json", golden_files.text(failures))


def test_fixed_instance_bundle_is_pinned():
    with golden_files.failing_fixed_instance():
        failures = golden_files.fixed_instance_bundles()
        assert [f["trial"] for f in failures] == [5, -1]
        fixed = failures[-1]
        assert list(fixed) == ["check", "trial", "residuals", "inputs"] and fixed["inputs"] == {}
        assert hn.replay_failure(json.loads(json.dumps(fixed))) == fixed["residuals"]
    _assert_golden("fixed_instance_bundles.json", golden_files.text(failures, sort_keys=False))


class TestParallelSuite:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Report two CPUs, so the pool runs on any machine; record each pool made."""
        made = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(hn, "_cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return made

    @pytest.mark.parametrize("tol", [None, 1e-300])
    def test_pool_matches_in_process_bit_for_bit(self, pools, tol):
        # 40 trials over 2 workers go out in chunks of 5; at tol=1e-300 most
        # trials write a failure bundle, so their order and inputs are pinned too
        # (a trial whose residuals are exactly 0 passes even there, and leaves none)
        config = hn.ExperimentConfig(seed=21, dims=(2, 3, 5), trials=40, tol=tol)
        report = hn.run_suite(config)
        assert pools == [(2,)]
        assert _sha256(report.fingerprint()) == _in_process_fingerprint(config)
        if tol is not None:
            trials = [f["trial"] for f in report.checks[0].failures]
            assert all(a < b for a, b in zip(trials, trials[1:])) and len(trials) >= 35

    def test_one_cpu_makes_no_pool(self, pools, monkeypatch):
        monkeypatch.setattr(hn, "_cpu_count", lambda: 1)
        config = hn.ExperimentConfig(seed=21, dims=(2,), trials=3)
        report = hn.run_suite(config)
        assert pools == []
        assert _sha256(report.fingerprint()) == _in_process_fingerprint(config)

    def test_environment_is_restored(self, pools, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        with hn._worker_pool(2):
            # spawned workers inherit it: one BLAS thread each, so they never oversubscribe
            assert [os.environ.get(key) for key in hn._BLAS_THREAD_VARS] == ["1"] * 3
        assert dict(os.environ) == before
        hn.run_suite(hn.ExperimentConfig(seed=21, dims=(2,), trials=3))
        assert pools == [(2,), (2,)]
        assert dict(os.environ) == before

    def test_workers_fork_from_one_preloaded_server(self):
        """Successive pools' workers are fresh, fork from one server that is not this
        process, and read one BLAS thread each."""
        reports = []
        for _ in range(2):
            with hn._worker_pool(2) as run:
                reports.append(set(run(_worker_identity, range(8))))
        first, second = ({pid for pid, _, _ in report} for report in reports)
        assert not first & second
        parents = {ppid for report in reports for _, ppid, _ in report}
        assert len(parents) == 1 and os.getpid() not in parents
        assert {blas for report in reports for _, _, blas in report} == {("1",) * 3}

    def test_a_worker_starts_no_pool(self, pools, monkeypatch):
        import multiprocessing

        assert hn._pool_workers(8) == 2
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        assert hn._pool_workers(8) == 1

    @staticmethod
    def _python(tmp_path, *args, stdin=None):
        """``python *args`` in a fresh interpreter in ``tmp_path``, with this package importable."""
        src = os.path.dirname(os.path.dirname(hn.__file__))
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": pythonpath}
        env.pop("SEQMEAS_SEED", None)
        return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env, input=stdin,
                              capture_output=True, text=True, timeout=120)

    def test_script_from_stdin_runs_in_process(self, tmp_path):
        """A spawned worker cannot re-import a script read from stdin, so none is started."""
        proc = self._python(tmp_path, "-", stdin=(
            "import hashlib\n"
            "import seqmeas.harness as hn\n"
            "hn._cpu_count = lambda: 2\n"
            "report = hn.run_suite(hn.ExperimentConfig(seed=9, dims=(2, 3), trials=6))\n"
            "print(hashlib.sha256(report.fingerprint().encode()).hexdigest())\n"
        ))
        assert proc.returncode == 0, proc.stderr
        config = hn.ExperimentConfig(seed=9, dims=(2, 3), trials=6)
        assert proc.stdout.strip() == _in_process_fingerprint(config)

    def test_cli_suite_in_a_fresh_interpreter(self, tmp_path):
        # start-method mistakes only show up in a new process
        config = {"seed": 9, "dims": [2, 3], "trials": 6}
        (tmp_path / "config.json").write_text(json.dumps(config))
        proc = self._python(tmp_path, "-m", "seqmeas.cli", "suite", "--config", "config.json",
                            "--out", "report.json")
        assert proc.returncode == 0, proc.stderr
        written = json.loads((tmp_path / "report.json").read_text())
        written.pop("duration_seconds")
        for check in written["checks"]:
            check.pop("duration_seconds")
        expected = _in_process_fingerprint(hn.ExperimentConfig.from_json(config))
        assert _sha256(json.dumps(written, sort_keys=True)) == expected

    def test_unguarded_script_raises_seqmeas_error(self, tmp_path):
        """Each worker re-imports the script, which runs the suite while the worker
        bootstraps; the worker refuses before it makes a pool and dies, and the caller
        gets a ``SeqMeasError`` naming the guard.  The workers share the caller's stderr
        and their tracebacks interleave there, so a worker also reports its refusal as
        one line in one ``os.write``, which a pipe keeps whole."""
        (tmp_path / "unguarded.py").write_text(
            "import os\n"
            "import seqmeas.harness as hn\n"
            "from seqmeas.errors import SeqMeasError\n"
            "hn._cpu_count = lambda: 2\n"
            "try:\n"
            "    hn.run_suite(hn.ExperimentConfig(seed=1, dims=(2,), trials=3))\n"
            "except SeqMeasError as exc:\n"
            "    if __name__ == '__mp_main__':  # a worker re-importing this script\n"
            "        os.write(2, f'\\nseqmeas.errors.SeqMeasError: {exc}\\n'.encode())\n"
            "    raise\n"
        )
        proc = self._python(tmp_path, "unguarded.py")
        assert proc.returncode != 0
        lines = proc.stderr.strip().splitlines()
        error = ("seqmeas.errors.SeqMeasError: a worker died; a script that runs the suite"
                 ' needs an if __name__ == "__main__": guard')
        refusal = ('seqmeas.errors.SeqMeasError: a script that runs the suite'
                   ' needs an if __name__ == "__main__": guard')
        assert refusal in lines, proc.stderr
        # nothing follows: with no worker's pool, the resource tracker has no semaphore
        # to reap, not even one a worker killed mid-cleanup unlinked but left registered
        assert lines[-1] == error, proc.stderr


def test_golden_moves_count_eps_and_ulps():
    """``golden_files.py --moves`` names a one-ulp nudge of one maximum as +1 ulp."""
    doc = json.loads((golden_files.GOLDEN / "suite_fingerprint.json").read_text())
    maxima = doc["checks"][0]["residual_maxima"]
    old = maxima["j_residual"]
    maxima["j_residual"] = new = math.nextafter(old, math.inf)
    (line,) = golden_files.moves("suite_fingerprint.json", golden_files.text(doc))
    eps = (new - old) / golden_files.EPS
    path = "/checks/jcheck/residual_maxima/j_residual"
    assert line == f"{path}: {old!r} -> {new!r} ({eps:+.1f} eps, +1 ulp)"


def test_suite_path_forms_no_projector_stack(monkeypatch):
    """Every check but dilation reads its families' isometries and never forms a stack."""
    calls = []
    original = qm.ProjectorFamily._outer_products

    def spy(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(qm.ProjectorFamily, "_outer_products", spy)
    config = hn.ExperimentConfig(seed=17, dims=(2, 3, 5, 8, 16), trials=20)
    for name in ("jcheck", "chain", "klein", "luders", "minimal", "jarzynski"):
        assert hn.run_check(name, config).passed, name
    assert calls == []
    assert hn.run_check("dilation", config).passed
    assert calls  # dilation's ancilla stacks, which the spy does see


@pytest.mark.parametrize("name", ["luders", "minimal"])
def test_bundles_keep_the_suites_columns(name):
    """A bundle holds its family's exact columns, degenerate ones too, and replay equals
    the suite's evaluation bit for bit."""
    config = hn.ExperimentConfig(seed=13, dims=(4, 6, 8), trials=12, tol=1e-300,
                                 check_set=(name,))
    spec = hn.CHECK_SPECS[name]

    def hexed(values):
        return {k: float(v).hex() for k, v in values.items()}

    degenerate = 0
    failures = hn.run_check(name, config).failures
    for failure in failures:
        bundle = json.loads(json.dumps(failure))
        trial = bundle["trial"]
        inputs, _ = spec.generate(hn.trial_rng(config.seed, name, trial), config, trial)
        family = qm.family_from_json(bundle["inputs"]["projectors"])
        assert family.vectors.tobytes() == inputs["family"].vectors.tobytes()
        assert family.degeneracies.tolist() == inputs["family"].degeneracies.tolist()
        degenerate += int(family.degeneracies.max() >= 2)
        assert hexed(hn.replay_failure(bundle)) == hexed(spec.evaluate(**inputs))
    assert len(failures) == config.trials and degenerate >= 3

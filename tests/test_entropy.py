"""Tests for entropy functionals and the theorem checkers."""

import json
import math
import zlib

import numpy as np
import pytest

import seqmeas.entropy as ent
import seqmeas.quantum as qm
import seqmeas.stat_model as sm
from seqmeas.errors import ShapeError
from seqmeas.harness import random_density, random_pvm, random_ranks

LOG2 = math.log(2.0)
#: high-precision four-term sum over the counterexample spectrum
S_SIGMA_ORACLE = 1.1246702892376166


def rng_for(test_id):
    return np.random.default_rng(zlib.crc32(test_id.encode()))


def matrix_log_oracle(rho_m, sigma_m):
    """Independent route: Tr(rho (log rho - log sigma)) via functional calculus.

    Valid when both operators have full rank.
    """
    def logm(a):
        w, v = np.linalg.eigh(a)
        return (v * np.log(w)) @ v.conj().T

    return float(np.trace(rho_m @ (logm(rho_m) - logm(sigma_m))).real)


def full_rank_density(dim, rng, floor=1e-3):
    """Random density bounded away from singularity for matrix-log oracles."""
    raw = random_density(dim, rng=rng).matrix
    mixed = (1.0 - floor * dim) * raw + floor * np.eye(dim)
    return qm.DensityOperator(mixed)


class TestVonNeumannEntropy:
    def test_pure_state(self):
        rng = rng_for("vn-pure")
        for dim in (2, 4, 8):
            rho = random_density(dim, rank=1, rng=rng)
            assert ent.von_neumann_entropy(rho) < 1e-12

    def test_maximally_mixed(self):
        for dim in (2, 3, 5, 8):
            rho = qm.DensityOperator(np.eye(dim) / dim)
            assert ent.von_neumann_entropy(rho) == pytest.approx(math.log(dim), abs=1e-12)

    def test_counterexample_sigma(self):
        _, sigma = ent.counterexample_pair()
        assert ent.von_neumann_entropy(sigma) == pytest.approx(S_SIGMA_ORACLE, abs=1e-12)

    def test_range(self):
        rng = rng_for("vn-range")
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            rho = random_density(dim, rank=int(rng.integers(1, dim + 1)), rng=rng)
            s = ent.von_neumann_entropy(rho)
            assert 0.0 <= s <= math.log(dim) + 1e-9


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rng = rng_for("rel-self")
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            rho = random_density(dim, rng=rng)
            assert abs(ent.relative_entropy(rho, rho)) < 1e-12

    def test_counterexample_value(self):
        rho, sigma = ent.counterexample_pair()
        value = ent.relative_entropy(rho, sigma)
        assert value == pytest.approx(S_SIGMA_ORACLE, abs=1e-9)

    def test_disjoint_supports_diverge(self):
        rho = qm.DensityOperator(np.diag([1.0, 0.0]))
        sigma = qm.DensityOperator(np.diag([0.0, 1.0]))
        assert math.isinf(ent.relative_entropy(rho, sigma))

    def test_matrix_log_oracle(self):
        rng = rng_for("rel-oracle")
        for _ in range(25):
            dim = int(rng.integers(2, 7))
            rho = full_rank_density(dim, rng)
            sigma = full_rank_density(dim, rng)
            value = ent.relative_entropy(rho, sigma)
            oracle = matrix_log_oracle(rho.matrix, sigma.matrix)
            assert value == pytest.approx(oracle, abs=1e-9)

    def test_dimension_mismatch(self):
        rng = rng_for("rel-dim")
        with pytest.raises(ShapeError):
            ent.relative_entropy(random_density(2, rng=rng), random_density(3, rng=rng))


class TestKlein:
    def test_self_pair(self):
        rng = rng_for("klein-self")
        rho = random_density(4, rng=rng)
        result = ent.klein_check(rho, rho)
        assert result.passed and result.residual <= 1e-12

    def test_random_pairs(self):
        rng = rng_for("klein-random")
        for k in range(100):
            dim = int(rng.integers(2, 9))
            rank_r = dim if k % 3 else int(rng.integers(1, dim + 1))
            rank_s = dim if k % 4 else int(rng.integers(1, dim + 1))
            rho = random_density(dim, rank_r, rng=rng)
            sigma = random_density(dim, rank_s, rng=rng)
            assert ent.klein_check(rho, sigma).passed

    def test_counterexample(self):
        rho, sigma = ent.counterexample_pair()
        result = ent.klein_check(rho, sigma)
        assert result.passed
        assert result.value == pytest.approx(S_SIGMA_ORACLE, abs=1e-9)


class TestMinimalPairs:
    def test_self_pair_is_minimal(self):
        rng = rng_for("minimal-self")
        rho = random_density(5, rng=rng)
        assert ent.is_minimal_pair(rho, rho).is_minimal

    def test_luders_pairs_are_minimal(self):
        rng = rng_for("minimal-luders")
        for k in range(50):
            dim = int(rng.integers(2, 9))
            rho = random_density(dim, rng=rng)
            fam = random_pvm(dim, random_ranks(dim, rng, degenerate=bool(k % 2)), rng)
            sigma = qm.luders_channel(rho, fam)
            result = ent.is_minimal_pair(rho, sigma)
            assert result.is_minimal
            assert result.residuals.max() < 1e-10

    def test_counterexample_is_not_minimal(self):
        rho, sigma = ent.counterexample_pair()
        result = ent.is_minimal_pair(rho, sigma)
        assert not result.is_minimal
        # clusters ascending: 1/16, 3/16 (degenerate), 9/16
        np.testing.assert_allclose(result.eigenvalues, [1 / 16, 3 / 16, 9 / 16], atol=1e-14)
        np.testing.assert_allclose(result.q, [0.25, 0.0, 0.75], atol=1e-12)
        np.testing.assert_allclose(result.p_tilde, [1 / 16, 3 / 8, 9 / 16], atol=1e-12)

    def test_identity_for_luders_pairs(self):
        rng = rng_for("minimal-identity")
        for k in range(50):
            dim = int(rng.integers(2, 9))
            rho = random_density(dim, rng=rng)
            fam = random_pvm(dim, random_ranks(dim, rng, degenerate=bool(k % 2)), rng)
            sigma = qm.luders_channel(rho, fam)
            residual = ent.minimal_identity_check(rho, sigma)
            assert residual is not None and residual < 1e-9
            assert ent.von_neumann_entropy(rho) <= ent.von_neumann_entropy(sigma) + 1e-10

    def test_identity_holds_for_counterexample_despite_non_minimality(self):
        rho, sigma = ent.counterexample_pair()
        residual = ent.minimal_identity_check(rho, sigma)
        assert residual is not None and residual < 1e-9

    def test_identity_undefined_on_divergence(self):
        rho = qm.DensityOperator(np.diag([1.0, 0.0]))
        sigma = qm.DensityOperator(np.diag([0.0, 1.0]))
        assert ent.minimal_identity_check(rho, sigma) is None

    def test_self_identity_zero(self):
        rng = rng_for("minimal-zero")
        rho = random_density(3, rng=rng)
        assert ent.minimal_identity_check(rho, rho) == pytest.approx(0.0, abs=1e-12)


class TestCounterexamplePair:
    def test_matches_reference_matrices(self):
        rho, sigma = ent.counterexample_pair()
        s3 = math.sqrt(3.0) / 4.0
        rho_expected = np.array(
            [
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.25, s3, 0.0],
                [0.0, s3, 0.75, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        sigma_expected = np.diag([3 / 16, 1 / 16, 9 / 16, 3 / 16])
        assert qm.max_abs(rho.matrix - rho_expected) < 1e-15
        assert qm.max_abs(sigma.matrix - sigma_expected) < 1e-15

    def test_partial_traces_isospectral(self):
        rho, _ = ent.counterexample_pair()
        first = np.linalg.eigvalsh(qm.partial_trace(rho.matrix, (2, 2), 1))
        second = np.linalg.eigvalsh(qm.partial_trace(rho.matrix, (2, 2), 2))
        np.testing.assert_allclose(first, second, atol=1e-14)
        np.testing.assert_allclose(np.sort(first), [0.25, 0.75], atol=1e-14)

    def test_rho_is_pure(self):
        rho, _ = ent.counterexample_pair()
        assert ent.von_neumann_entropy(rho) < 1e-12


class TestLudersEntropyCheck:
    def test_own_eigenprojections_leave_entropy_unchanged(self):
        rng = rng_for("luders-own")
        rho = random_density(4, rng=rng)
        fam = qm.spectral_projectors(rho.matrix).family
        report = ent.entropy_report(rho, qm.luders_channel(rho, fam))
        assert abs(report.gap) < 1e-10
        assert report.is_minimal

    def test_plus_state_gains_log_two(self):
        rho = qm.DensityOperator(np.array([[0.5, 0.5], [0.5, 0.5]]))
        basis = qm.ProjectorFamily((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        report = ent.entropy_report(rho, qm.luders_channel(rho, basis))
        assert report.s_rho == pytest.approx(0.0, abs=1e-12)
        assert report.gap == pytest.approx(LOG2, abs=1e-12)

    def test_random_instances(self):
        rng = rng_for("luders-random")
        for k in range(100):
            dim = int(rng.integers(2, 9))
            rho = random_density(dim, rng=rng)
            fam = random_pvm(dim, random_ranks(dim, rng, degenerate=bool(k % 2)), rng)
            report = ent.entropy_report(rho, qm.luders_channel(rho, fam))
            assert report.gap >= -1e-10
            assert report.is_minimal


class TestCrossModuleConsistency:
    def test_entropy_setup_identities(self):
        rng = rng_for("consistency")
        for _ in range(25):
            dim = int(rng.integers(2, 9))
            rho = random_density(dim, rng=rng)
            sigma = random_density(dim, rng=rng)
            sd_r = qm.spectral_projectors(rho.matrix)
            sd_s = qm.spectral_projectors(sigma.matrix)
            p_tilde = sd_s.eigenvalues * sd_s.family.degeneracies
            model = qm.build_sequential_model(
                rho, sd_r.family, qm.identity_unitary(dim), sd_s.family, p_tilde
            )
            chain = sm.entropy_chain(model)
            assert abs(chain.h_p - ent.von_neumann_entropy(rho)) < 1e-10
            logm_sigma = matrix_log_oracle_sigma(sigma.matrix)
            minus_tr = -float(np.trace(rho.matrix @ logm_sigma).real)
            assert abs(chain.cross - minus_tr) < 1e-10


def matrix_log_oracle_sigma(sigma_m):
    w, v = np.linalg.eigh(sigma_m)
    return (v * np.log(w)) @ v.conj().T


class TestEntropyReport:
    def test_counterexample_report(self):
        rho, sigma = ent.counterexample_pair()
        report = ent.entropy_report(rho, sigma)
        assert not report.is_minimal
        assert report.gap == pytest.approx(S_SIGMA_ORACLE, abs=1e-9)
        assert report.residuals["minimal_identity"] < 1e-9
        doc = json.loads(json.dumps(report.to_json()))
        assert doc["is_minimal"] is False
        assert isinstance(doc["rel_entropy"], float)

    def test_infinity_marker(self):
        rho = qm.DensityOperator(np.diag([1.0, 0.0]))
        sigma = qm.DensityOperator(np.diag([0.0, 1.0]))
        report = ent.entropy_report(rho, sigma)
        assert math.isinf(report.rel_entropy)
        assert report.to_json()["rel_entropy"] == "inf"

"""Tests for the finite-dimensional quantum layer."""

import hashlib
import math
import pickle
import tracemalloc
import zlib

import numpy as np
import pytest

import seqmeas.entropy as ent
import seqmeas.harness as hn
import seqmeas.quantum as qm
import seqmeas.stat_model as sm
from seqmeas.entropy import von_neumann_entropy
from seqmeas.errors import (
    AssumptionError,
    InputError,
    InvalidOperatorError,
    ShapeError,
)
from seqmeas.harness import (
    random_density,
    random_pvm,
    random_ranks,
    random_state_vector,
    random_unitary,
)

LOG2 = math.log(2.0)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)  # |+><+|
COMP_BASIS = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))


def rng_for(test_id):
    return np.random.default_rng(zlib.crc32(test_id.encode()))


class TestOperatorTypes:
    def test_density_validation_order(self):
        with pytest.raises(InvalidOperatorError) as err:
            qm.DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))
        assert err.value.constraint == "hermitian"
        with pytest.raises(InvalidOperatorError) as err:
            qm.DensityOperator(np.diag([1.5, -0.5]))
        assert err.value.constraint == "positive"
        with pytest.raises(InvalidOperatorError) as err:
            qm.DensityOperator(np.diag([0.7, 0.7]))
        assert err.value.constraint == "unit_trace"

    def test_unitary_validation(self):
        qm.Unitary(np.eye(3))
        with pytest.raises(InvalidOperatorError) as err:
            qm.Unitary(np.diag([1.0, 2.0]))
        assert err.value.constraint == "unitary"

    def test_family_orthogonality_violation(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(InvalidOperatorError) as err:
            qm.ProjectorFamily((p, p))
        assert err.value.constraint == "orthogonal"

    def test_family_completeness_violation(self):
        with pytest.raises(InvalidOperatorError) as err:
            qm.ProjectorFamily((np.diag([1.0, 0.0]).astype(complex),))
        assert err.value.constraint == "complete"

    def test_family_idempotency_violation(self):
        with pytest.raises(InvalidOperatorError) as err:
            qm.ProjectorFamily((0.5 * np.eye(2), 0.5 * np.eye(2)))
        assert err.value.constraint == "idempotent"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unitary_overflowing_to_nan_rejected(self):
        # U†U - I overflows to NaN, which fails no ``dev >= tol`` gate
        m = np.array([[1e200 + 1e200j, 1e200 - 1e200j], [1e200 + 1e200j, -1e200 + 1e200j]])
        for build in (qm.Unitary, lambda m: qm.unitary_from_json(qm.matrix_to_json(m))):
            with pytest.raises(InvalidOperatorError) as err:
                build(m)
            assert err.value.constraint == "unitary" and math.isnan(err.value.residual)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_family_overflowing_to_nan_rejected(self):
        # Hermitian, complete and of unit traces, but P P - P overflows to NaN
        y = 1e200 + 1e200j
        p = np.array([[1.0, y], [np.conj(y), 0.0]])
        with pytest.raises(InvalidOperatorError) as err:
            qm.ProjectorFamily((p, np.eye(2) - p))
        assert err.value.constraint == "idempotent" and math.isnan(err.value.residual)

    def test_zero_dimension_refused(self):
        empty = np.zeros((0, 0))
        for build in (qm.DensityOperator, qm.Unitary, qm.spectral_projectors,
                      lambda m: qm.ProjectorFamily((m,))):
            with pytest.raises(ShapeError, match="dimension at least 1"):
                build(empty)
        rng = rng_for("zero-dimension")
        for draw in (lambda: random_pvm(0, [], rng), lambda: random_state_vector(0, rng),
                     lambda: random_unitary(0, rng)):
            with pytest.raises(InputError, match="dim must be positive"):
                draw()

    def test_family_degeneracies(self):
        fam = qm.ProjectorFamily((np.diag([1, 1, 0, 0]).astype(complex),
                                  np.diag([0, 0, 1, 0]).astype(complex),
                                  np.diag([0, 0, 0, 1]).astype(complex)))
        assert fam.degeneracies.tolist() == [2, 1, 1]
        assert len(fam) == 3 and fam.dim == 4


class TestEigendecomposition:
    def test_identity(self):
        w, _ = qm.hermitian_eigendecomposition(np.eye(3))
        np.testing.assert_allclose(w, [1.0, 1.0, 1.0])

    def test_counterexample_sigma_spectrum(self):
        sigma = np.diag([3 / 16, 1 / 16, 9 / 16, 3 / 16])
        w, _ = qm.hermitian_eigendecomposition(sigma)
        np.testing.assert_allclose(w, [1 / 16, 3 / 16, 3 / 16, 9 / 16], atol=1e-15)

    def test_pauli_x(self):
        pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        w, v = qm.hermitian_eigendecomposition(pauli_x)
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-15)
        for k in range(2):
            np.testing.assert_allclose(np.abs(v[:, k]), [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_reconstruction(self):
        rng = rng_for("eig-recon")
        for dim in (2, 5, 8):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            a = a + a.conj().T
            w, v = qm.hermitian_eigendecomposition(a)
            recon = (v * w) @ v.conj().T
            assert qm.max_abs(recon - a) < 1e-9 * max(qm.max_abs(a), 1.0) * dim
            assert qm.max_abs(v.conj().T @ v - np.eye(dim)) < 1e-9

    def test_non_hermitian_rejected(self):
        with pytest.raises(InputError):
            qm.hermitian_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSpectralProjectors:
    def test_identity_single_cluster(self):
        sd = qm.spectral_projectors(np.eye(4))
        assert len(sd.family) == 1
        assert sd.family.degeneracies.tolist() == [4]
        np.testing.assert_allclose(sd.eigenvalues, [1.0])

    def test_counterexample_sigma_clusters(self):
        sigma = np.diag([3 / 16, 1 / 16, 9 / 16, 3 / 16])
        sd = qm.spectral_projectors(sigma)
        np.testing.assert_allclose(sd.eigenvalues, [1 / 16, 3 / 16, 9 / 16], atol=1e-14)
        assert sd.family.degeneracies.tolist() == [1, 2, 1]

    def test_pure_state_clusters(self):
        from seqmeas.entropy import counterexample_pair

        rho, _ = counterexample_pair()
        sd = qm.spectral_projectors(rho.matrix)
        np.testing.assert_allclose(sd.eigenvalues, [0.0, 1.0], atol=1e-12)
        assert sd.family.degeneracies.tolist() == [3, 1]
        top = sd.family.projectors[1]
        assert qm.max_abs(top @ top - top) < 1e-12
        assert np.trace(top).real == pytest.approx(1.0, abs=1e-12)

    def test_cluster_representatives_separated(self):
        rng = rng_for("clusters")
        for _ in range(20):
            a = random_density(6, rng=rng).matrix
            sd = qm.spectral_projectors(a)
            gaps = np.diff(sd.eigenvalues)
            assert (gaps > 1e-8).all()

    def test_column_family_equals_validated_family(self):
        rng = rng_for("column-family")
        for dim in (2, 5, 8, 16, 64):
            # a few distinct levels, so most clusters are degenerate
            levels = rng.integers(0, max(2, dim // 3), size=dim).astype(float)
            levels[1] = levels[0]
            u = random_unitary(dim, rng).matrix
            h = (u * levels) @ u.conj().T
            h = 0.5 * (h + h.conj().T)
            sd = qm.spectral_projectors(h)
            # reference: the same projectors through the fully validating constructor
            w, v = qm.hermitian_eigendecomposition(h)
            projectors = []
            for sl in qm._cluster_slices(w, qm.CLUSTER_TOL):
                p = v[:, sl] @ v[:, sl].conj().T
                projectors.append(0.5 * (p + p.conj().T))
            ref = qm.ProjectorFamily(tuple(projectors))
            assert len(sd.family) == len(ref) < dim
            for got, want in zip(sd.family.projectors, ref.projectors):
                assert np.array_equal(got, want)
                assert not got.flags.writeable
            assert np.array_equal(sd.family.degeneracies, ref.degeneracies)

    def test_batch_equals_one_at_a_time_on_hard_inputs(self):
        """One batch of requests mixing d = 1..64, gaps near CLUSTER_TOL and degenerate
        clusters decomposes each matrix bit for bit as alone; a non-Hermitian matrix in
        the middle of a stack fails its own request only, with the error it raises alone."""
        rng = rng_for("spectral-batch-hard")
        matrices = []
        for dim in (1, 2, 8, 16, 64):
            for gap in (0.5, 1.0, 2.0, 10.0):
                eigs = np.sort(rng.uniform(-1.0, 1.0, dim))
                eigs[1::2] = eigs[0 : dim - 1 : 2] + gap * qm.CLUSTER_TOL
                if dim >= 8:
                    eigs[-3:] = eigs[-3]  # a degenerate cluster of three
                u = random_unitary(dim, rng).matrix
                h = (u * eigs) @ u.conj().T
                matrices.append(0.5 * (h + h.conj().T))
        bad = matrices[9].copy()  # the second of four d = 8 requests
        bad[0, 1] += 1e-6
        with pytest.raises(InputError) as alone_error:
            qm.spectral_projectors(bad)
        requests = [*matrices[:9], bad, *matrices[9:]]

        def decomposed(m):
            return (yield qm.spectral_projectors, m)

        batch = qm._build([decomposed(m) for m in requests])
        assert type(batch[9]) is InputError and str(batch[9]) == str(alone_error.value)
        del batch[9]
        merged = set()
        for m, got in zip(matrices, batch):
            want = qm.spectral_projectors(m)
            assert_same_bits(got.eigenvalues, want.eigenvalues)
            assert_same_bits(got.family.degeneracies, want.family.degeneracies)
            assert_same_bits(got.family.stack, want.family.stack)
            assert not got.family.stack.flags.writeable
            assert not any(p.flags.writeable for p in got.family.projectors)
            merged.add(len(got.family) < m.shape[0])
        assert merged == {True, False}
        stack = qm.spectral_projectors(np.stack(matrices[8:12]))  # one call on a (4, 8, 8) stack
        for m, got in zip(matrices[8:12], stack):
            assert_same_bits(got.family.stack, qm.spectral_projectors(m).family.stack)

    def test_column_family_rejects_non_orthonormal_columns(self):
        rng = rng_for("column-perturbed")
        for dim in (2, 5, 16):
            v = random_unitary(dim, rng).matrix
            eps = qm.PROJECTOR_TOL / dim**2
            qm.ProjectorFamily._from_column_stack(v[np.newaxis] * (1 + 0.01 * eps), [[dim]])
            with pytest.raises(InvalidOperatorError) as err:
                qm.ProjectorFamily._from_column_stack(v[np.newaxis] * (1 + eps), [[1] * dim])
            assert err.value.constraint == "orthonormal"

    def test_column_family_rejects_nan_columns(self):
        with pytest.raises(InvalidOperatorError) as err:
            qm.ProjectorFamily._from_column_stack(np.full((1, 2, 2), np.nan), [[1, 1]])
        assert err.value.constraint == "orthonormal"
        v = random_unitary(3, rng_for("column-nan")).matrix.copy()
        v[1, 2] = np.nan
        stack = np.stack([np.eye(3, dtype=complex), v])
        for widths in ([1, 1, 1], [1, 2]):
            with pytest.raises(InvalidOperatorError) as err:
                qm.ProjectorFamily._from_column_stack(stack, [widths, widths])
            assert err.value.constraint == "orthonormal"


class TestMeasurementStatistics:
    def test_maximally_mixed(self):
        rho = qm.DensityOperator(np.eye(2) / 2)
        p = qm.outcome_probabilities(rho, qm.ProjectorFamily(COMP_BASIS))
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-15)

    def test_trivial_family(self):
        rng = rng_for("probs-trivial")
        rho = random_density(3, rng=rng)
        p = qm.outcome_probabilities(rho, qm.ProjectorFamily((np.eye(3, dtype=complex),)))
        np.testing.assert_allclose(p, [1.0], atol=1e-12)

    def test_counterexample_q(self):
        from seqmeas.entropy import counterexample_pair

        rho, sigma = counterexample_pair()
        sd = qm.spectral_projectors(sigma.matrix)
        q = qm.outcome_probabilities(rho, sd.family)
        np.testing.assert_allclose(q, [0.25, 0.0, 0.75], atol=1e-14)

    def test_sum_to_one(self):
        rng = rng_for("probs-sum")
        for _ in range(20):
            rho = random_density(5, rng=rng)
            fam = random_pvm(5, [1, 2, 2], rng)
            p = qm.outcome_probabilities(rho, fam)
            assert p.min() >= 0.0
            assert p.sum() == pytest.approx(1.0, abs=1e-10)


class TestLuders:
    def test_channel_fixes_own_eigenprojections(self):
        rng = rng_for("luders-fix")
        rho = random_density(4, rng=rng)
        fam = qm.spectral_projectors(rho.matrix).family
        out = qm.luders_channel(rho, fam)
        assert qm.max_abs(out.matrix - rho.matrix) < 1e-12

    def test_channel_erases_coherences(self):
        out = qm.luders_channel(qm.DensityOperator(PLUS), qm.ProjectorFamily(COMP_BASIS))
        assert qm.max_abs(out.matrix - np.eye(2) / 2) < 1e-14

    def test_channel_preserves_trace_and_raises_entropy(self):
        rng = rng_for("luders-entropy")
        for _ in range(20):
            rho = random_density(4, rng=rng)
            fam = random_pvm(4, [2, 2], rng)
            out = qm.luders_channel(rho, fam)
            assert abs(np.trace(out.matrix).real - 1.0) < 1e-12
            assert von_neumann_entropy(out) >= von_neumann_entropy(rho) - 1e-10


class TestAssumption:
    def test_function_of_observable_holds(self):
        rng = rng_for("assumption-fn")
        h = random_density(4, rng=rng).matrix  # any Hermitian works
        sd = qm.spectral_projectors(h)
        weights = rng.random(len(sd.family)) + 0.1
        weights /= weights.sum()
        rho0 = qm.DensityOperator(
            sum((w / d) * p for w, d, p in zip(weights, sd.family.degeneracies, sd.family.projectors))
        )
        report = qm.assumption_holds(rho0, sd.family)
        assert report.holds and report.weighted_holds
        assert report.all_outcomes_populated

    def test_rank_one_families_always_hold(self):
        rng = rng_for("assumption-rank1")
        for _ in range(10):
            rho = random_density(4, rng=rng)
            fam = random_pvm(4, [1, 1, 1, 1], rng)
            assert qm.assumption_holds(rho, fam).holds

    def test_plus_state(self):
        rho0 = qm.DensityOperator(PLUS)
        assert qm.assumption_holds(rho0, qm.ProjectorFamily(COMP_BASIS)).holds
        trivial = qm.ProjectorFamily((np.eye(2, dtype=complex),))
        report = qm.assumption_holds(rho0, trivial)
        assert not report.holds
        assert report.residuals[0] == pytest.approx(0.5, abs=1e-12)


class TestBuildSequentialModel:
    def test_dim_one(self):
        rho0 = qm.DensityOperator(np.eye(1))
        fam = qm.ProjectorFamily((np.eye(1, dtype=complex),))
        model = qm.build_sequential_model(rho0, fam, qm.identity_unitary(1), fam, [1.0])
        assert model.pi.tolist() == [[1.0]]
        assert model.x.tolist() == [1.0]
        assert model.x_tilde.tolist() == [1.0]

    def test_qubit_computational(self):
        rho0 = qm.DensityOperator(np.eye(2) / 2)
        fam = qm.ProjectorFamily(COMP_BASIS)
        model = qm.build_sequential_model(
            rho0, fam, qm.identity_unitary(2), fam, [0.5, 0.5]
        )
        np.testing.assert_allclose(model.pi, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(model.x, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(model.x_tilde, [0.5, 0.5], atol=1e-15)

    def test_entropy_setup_specialisation(self):
        rng = rng_for("build-entropy-setup")
        rho = random_density(4, rng=rng)
        sigma = random_density(4, rng=rng)
        sd_r = qm.spectral_projectors(rho.matrix)
        sd_s = qm.spectral_projectors(sigma.matrix)
        p_tilde = sd_s.eigenvalues * sd_s.family.degeneracies
        model = qm.build_sequential_model(
            rho, sd_r.family, qm.identity_unitary(4), sd_s.family, p_tilde
        )
        overlaps = np.array(
            [
                [np.trace(p @ q).real for p in sd_r.family.projectors]
                for q in sd_s.family.projectors
            ]
        )
        np.testing.assert_allclose(model.pi, overlaps, atol=1e-12)
        np.testing.assert_allclose(model.x, sd_r.eigenvalues, atol=1e-12)
        np.testing.assert_allclose(model.x_tilde, sd_s.eigenvalues, atol=1e-12)
        assert sm.validate_model(model) == []

    def test_degeneracies_match_marginals(self):
        rng = rng_for("build-degeneracy")
        rho0 = qm.DensityOperator(np.eye(4) / 4)
        fam1 = random_pvm(4, [2, 2], rng)
        fam2 = random_pvm(4, [1, 3], rng)
        model = qm.build_sequential_model(
            rho0, fam1, random_unitary(4, rng), fam2, [0.25, 0.75]
        )
        d, d_tilde = sm.degeneracy_marginals(model)
        np.testing.assert_allclose(d, [2.0, 2.0], atol=1e-10)
        np.testing.assert_allclose(d_tilde, [1.0, 3.0], atol=1e-10)

    def test_born_rule_cross_check(self):
        rng = rng_for("build-born")
        for _ in range(10):
            rho = random_density(3, rng=rng)
            fam1 = random_pvm(3, [1, 1, 1], rng)
            u = random_unitary(3, rng)
            fam2 = random_pvm(3, [1, 2], rng)
            model = qm.build_sequential_model(rho, fam1, u, fam2, [0.4, 0.6])
            joint = (model.pi * model.x[np.newaxis, :]).T
            for i, p in enumerate(fam1.projectors):
                post = u.matrix @ p @ rho.matrix @ p @ u.matrix.conj().T
                for j, q in enumerate(fam2.projectors):
                    direct = np.trace(q @ post).real
                    assert abs(joint[i, j] - direct) < 1e-10

    def test_assumption_violation_refused(self):
        rho0 = qm.DensityOperator(PLUS)
        trivial = qm.ProjectorFamily((np.eye(2, dtype=complex),))
        fam = qm.ProjectorFamily(COMP_BASIS)
        with pytest.raises(AssumptionError) as err:
            qm.build_sequential_model(rho0, trivial, qm.identity_unitary(2), fam, [0.5, 0.5])
        assert err.value.report is not None

    def test_p_tilde_must_be_positive(self):
        rho0 = qm.DensityOperator(np.eye(2) / 2)
        fam = qm.ProjectorFamily(COMP_BASIS)
        with pytest.raises(InputError):
            qm.build_sequential_model(rho0, fam, qm.identity_unitary(2), fam, [1.0, 0.0])

    def test_nan_p_tilde_rejected(self):
        rho0 = qm.DensityOperator(np.eye(2) / 2)
        fam = qm.ProjectorFamily(COMP_BASIS)
        with pytest.raises(InputError, match="strictly positive"):
            qm.build_sequential_model(rho0, fam, qm.identity_unitary(2), fam, [math.nan] * 2)


class TestTwoPointProtocol:
    def test_equal_hamiltonians_identity_drive(self):
        h = np.diag([0.0, 1.0])
        result = qm.two_point_work_protocol(h, h, qm.identity_unitary(2), beta=1.0)
        observed = result.work[result.probability > 1e-12]
        assert qm.max_abs(observed) < 1e-12
        assert result.lhs == pytest.approx(1.0, abs=1e-12)
        assert result.rhs == pytest.approx(1.0, abs=1e-12)

    def test_qubit_hadamard_brute_force(self):
        h = np.diag([0.0, 1.0])
        hadamard = qm.Unitary(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2))
        result = qm.two_point_work_protocol(h, h, hadamard, beta=1.0)
        # independent four-term enumeration
        z = 1.0 + math.exp(-1.0)
        lhs = 0.0
        for i, e in enumerate((0.0, 1.0)):
            for f in (0.0, 1.0):
                lhs += 0.5 * (math.exp(-e) / z) * math.exp(-1.0 * (f - e))
        assert result.lhs == pytest.approx(lhs, abs=1e-13)
        assert result.lhs == pytest.approx(1.0, abs=1e-12)
        assert result.rhs == pytest.approx(1.0, abs=1e-12)

    def test_random_instances(self):
        rng = rng_for("jarzynski-random")
        for beta in (0.1, 1.0, 10.0):
            for _ in range(10):
                eigs0 = rng.uniform(-2.0, 2.0, 6)
                eigs0 -= eigs0.min() + 2.0
                eigs1 = rng.uniform(-2.0, 2.0, 6)
                eigs1 -= eigs1.min() + 2.0
                v0 = random_unitary(6, rng).matrix
                v1 = random_unitary(6, rng).matrix
                h0 = (v0 * eigs0) @ v0.conj().T
                h1 = (v1 * eigs1) @ v1.conj().T
                result = qm.two_point_work_protocol(
                    0.5 * (h0 + h0.conj().T), 0.5 * (h1 + h1.conj().T),
                    random_unitary(6, rng), beta,
                )
                assert abs(result.lhs - result.rhs) < 1e-9

    def test_invalid_beta(self):
        h = np.diag([0.0, 1.0])
        with pytest.raises(InputError):
            qm.two_point_work_protocol(h, h, qm.identity_unitary(2), beta=0.0)
        with pytest.raises(InputError, match="beta must be positive"):
            qm.two_point_work_protocol(h, h, qm.identity_unitary(2), beta=math.nan)


class TestTensorAndPartialTrace:
    def test_identity_product(self):
        np.testing.assert_allclose(qm.tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_counterexample_sigma_product(self):
        sigma = qm.tensor_product(np.diag([0.25, 0.75]), np.diag([0.75, 0.25]))
        np.testing.assert_allclose(sigma, np.diag([3 / 16, 1 / 16, 9 / 16, 3 / 16]), atol=1e-16)

    def test_adjoint_identity(self):
        rng = rng_for("kron-adjoint")
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(
            qm.tensor_product(a, b).conj().T,
            qm.tensor_product(a.conj().T, b.conj().T),
            atol=1e-14,
        )

    def test_mixed_product_identity(self):
        rng = rng_for("kron-mixed")
        a, c = (rng.standard_normal((2, 2)) for _ in range(2))
        b, d = (rng.standard_normal((3, 3)) for _ in range(2))
        np.testing.assert_allclose(
            qm.tensor_product(a, b) @ qm.tensor_product(c, d),
            qm.tensor_product(a @ c, b @ d),
            atol=1e-12,
        )

    def test_partial_trace_of_product(self):
        rng = rng_for("ptrace-product")
        rho1 = random_density(2, rng=rng).matrix
        rho2 = random_density(3, rng=rng).matrix
        total = qm.tensor_product(rho1, rho2)
        np.testing.assert_allclose(qm.partial_trace(total, (2, 3), 1), rho1, atol=1e-14)
        np.testing.assert_allclose(qm.partial_trace(total, (2, 3), 2), rho2, atol=1e-14)

    def test_schmidt_partial_traces(self):
        phi = np.array([0.0, 0.5, math.sqrt(3) / 2, 0.0])
        rho = np.outer(phi, phi)
        np.testing.assert_allclose(
            qm.partial_trace(rho, (2, 2), 1), np.diag([0.25, 0.75]), atol=1e-15
        )
        np.testing.assert_allclose(
            qm.partial_trace(rho, (2, 2), 2), np.diag([0.75, 0.25]), atol=1e-15
        )
        first = np.linalg.eigvalsh(qm.partial_trace(rho, (2, 2), 1))
        second = np.linalg.eigvalsh(qm.partial_trace(rho, (2, 2), 2))
        np.testing.assert_allclose(first, second, atol=1e-14)

    def test_trace_duality(self):
        rng = rng_for("ptrace-duality")
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = random_density(6, rng=rng).matrix
        lhs = np.trace(qm.tensor_product(a, np.eye(2)) @ rho)
        rhs = np.trace(a @ qm.partial_trace(rho, (3, 2), 1))
        assert abs(lhs - rhs) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            qm.partial_trace(np.eye(6), (4, 2), 1)


class TestDilation:
    def test_trivial_coupling(self):
        rng = rng_for("dilation-trivial")
        rho = random_density(2, rng=rng)
        phi = np.array([1.0, 0.0], dtype=complex)
        p_phi = np.outer(phi, phi.conj())
        family = qm.ProjectorFamily((p_phi, np.eye(2) - p_phi))
        res = qm.dilation_analysis(rho, qm.identity_unitary(4), family, phi)
        assert qm.max_abs(res.sigma.matrix - rho.matrix) < 1e-12
        assert res.s2 == pytest.approx(res.s1, abs=1e-12)
        assert res.s3 == pytest.approx(res.s1, abs=1e-10)
        assert res.s32 == pytest.approx(0.0, abs=1e-10)

    def test_swap_reset_oracle(self):
        # oracle: explicit 4x4 algebra
        swap = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                swap[b * 2 + a, a * 2 + b] = 1.0
        rho = qm.DensityOperator(np.eye(2) / 2)
        basis = qm.ProjectorFamily(COMP_BASIS)
        res = qm.dilation_analysis(rho, qm.Unitary(swap), basis, np.array([1.0, 0.0]))
        np.testing.assert_allclose(res.sigma.matrix, np.diag([1.0, 0.0]), atol=1e-14)
        expected_rho_prime = qm.tensor_product(np.eye(2) / 2, np.diag([1.0, 0.0]))
        np.testing.assert_allclose(res.rho_prime.matrix, expected_rho_prime, atol=1e-14)
        assert von_neumann_entropy(res.sigma) < 1e-12
        assert res.s1 == pytest.approx(LOG2, abs=1e-12)
        assert res.s2 == pytest.approx(LOG2, abs=1e-12)
        assert res.s3 == pytest.approx(LOG2, abs=1e-12)

    def test_random_chain(self):
        rng = rng_for("dilation-random")
        for dim in (2, 3):
            for _ in range(10):
                rho = random_density(dim, rng=rng)
                phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                phi /= np.linalg.norm(phi)
                fam = random_pvm(dim, [1] * dim, rng)
                res = qm.dilation_analysis(rho, random_unitary(dim * dim, rng), fam, phi)
                assert res.s1 <= res.s2 + 1e-9
                assert res.s2 <= res.s3 + 1e-9
                assert abs(np.trace(res.sigma.matrix).real - 1.0) < 1e-12

    def test_unnormalised_phi_rejected(self):
        rng = rng_for("dilation-phi")
        rho = random_density(2, rng=rng)
        fam = qm.ProjectorFamily(COMP_BASIS)
        with pytest.raises(InputError):
            qm.dilation_analysis(rho, qm.identity_unitary(4), fam, np.array([1.0, 1.0]))

    def test_dim_mismatch_rejected(self):
        rng = rng_for("dilation-dim")
        rho = random_density(2, rng=rng)
        fam = qm.ProjectorFamily(COMP_BASIS)
        with pytest.raises(ShapeError):
            qm.dilation_analysis(rho, qm.identity_unitary(3), fam, np.array([1.0, 0.0]))


class TestUnitaryInvariance:
    def test_entropy_constant_under_conjugation(self):
        rng = rng_for("unitary-invariance")
        for _ in range(20):
            rho = random_density(5, rng=rng)
            u = random_unitary(5, rng).matrix
            rotated = qm.DensityOperator(u @ rho.matrix @ u.conj().T)
            assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-10


class TestJsonFormat:
    def test_round_trip(self):
        rng = rng_for("json-roundtrip")
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        doc = qm.matrix_to_json(m)
        np.testing.assert_array_equal(qm.matrix_from_json(doc), m)

    def test_density_load_reports_first_violation(self):
        doc = qm.matrix_to_json(np.diag([0.7, 0.7]))
        with pytest.raises(InvalidOperatorError) as err:
            qm.density_from_json(doc)
        assert err.value.constraint == "unit_trace"
        assert err.value.residual == pytest.approx(0.4, abs=1e-12)

    def test_malformed_documents(self):
        with pytest.raises(InputError):
            qm.matrix_from_json({"dim": 2})
        with pytest.raises(ShapeError):
            qm.matrix_from_json({"dim": 2, "entries": [[[1.0, 0.0]]]})
        with pytest.raises(InputError):
            qm.matrix_from_json({"dim": 1, "entries": [[["a", "b"]]]})

    @pytest.mark.parametrize(
        "doc",
        [
            {"dim": True, "entries": [[[1, 0]]]},
            {"dim": 1.9, "entries": [[[1, 0]]]},
            {"dim": 1, "entries": [[[True, False]]]},
            {"dim": 1, "entries": [[["1", 0]]]},
            {"dim": 1, "entries": [[[1, 0, 0]]]},
            {"dim": 1, "entries": [[[1, True]]]},
            {"dim": 1, "entries": [[[0.5, False]]]},
        ],
    )
    def test_non_numeric_documents_rejected(self, doc):
        with pytest.raises(InputError):
            qm.matrix_from_json(doc)

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError):
            qm.matrix_from_json({"dim": 1, "entries": [[[1, 0]]], "junk": 2})

    def test_integer_entries_load_as_floats(self):
        m = qm.matrix_from_json({"dim": 1, "entries": [[[1, -2]]]})
        assert m.dtype == complex and m.tolist() == [[1 - 2j]]

    def test_family_round_trip(self):
        docs = [qm.matrix_to_json(p) for p in COMP_BASIS]
        fam = qm.family_from_json(docs)
        assert fam.degeneracies.tolist() == [1, 1]

    @staticmethod
    def jarzynski_bundle(h0_doc):
        """A ``jarzynski`` failure bundle with the given ``h0`` document."""
        docs = {"h1": qm.matrix_to_json(np.diag([0.0, 1.0])), "u": qm.matrix_to_json(np.eye(2))}
        return {"check": "jarzynski", "trial": 0, "inputs": {"h0": h0_doc, **docs, "beta": 1.0}}

    def test_hermitian_load_rejects_non_hermitian(self):
        # the protocol, not the loader, refuses a non-Hermitian h0
        assert hn.replay_failure(self.jarzynski_bundle(qm.matrix_to_json(np.diag([0.0, 2.0]))))
        doc = qm.matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(InputError, match="operator is not Hermitian"):
            hn.replay_failure(self.jarzynski_bundle(doc))

    def test_hermitian_load_rejects_nan(self):
        doc = {"dim": 2, "entries": [[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
        with pytest.raises(InputError, match="operator must have finite entries"):
            hn.replay_failure(self.jarzynski_bundle(doc))


def assert_same_bits(got, want):
    """Equal bit for bit: array_equal, plus dtype, shape and the sign of every zero."""
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(got, want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def loop_traces(a, family):
    return np.array([np.trace(a @ p).real for p in family.projectors])


def degenerate_families(dim, rng):
    """Families with a cluster of rank >= 2 from every constructor.

    ``random_pvm`` on a forced degenerate composition, ``spectral_projectors``
    of an operator with a repeated eigenvalue, and the public constructor on
    copies of the first family's projectors (the JSON replay path).
    """
    pvm = random_pvm(dim, random_ranks(dim, rng, degenerate=True), rng)
    ranks = random_ranks(dim, rng, degenerate=True)
    eigenvalues = np.repeat(np.sort(rng.standard_normal(len(ranks))), ranks)
    u = random_unitary(dim, rng).matrix
    spectral = qm.spectral_projectors(u @ np.diag(eigenvalues) @ u.conj().T).family
    public = qm.ProjectorFamily(tuple(np.array(p) for p in pvm.projectors))
    for fam in (pvm, spectral):
        assert fam.degeneracies.max() >= 2
    return {"random_pvm": pvm, "spectral": spectral, "public": public}


DIMS = [2, 5, 8, 16, 64]


class TestBatchedKernels:
    """Each kernel over the projector stack equals its per-projector loop bit for bit."""

    @pytest.fixture(params=DIMS)
    def case(self, request):
        dim = request.param
        rng = rng_for(f"batched-kernels-{dim}")
        return dim, rng, degenerate_families(dim, rng), random_density(dim, rng=rng)

    def test_stack_is_the_only_copy(self, case):
        _, _, families, _ = case
        for fam in families.values():
            assert fam.stack.shape == (len(fam), fam.dim, fam.dim)
            for k, p in enumerate(fam.projectors):
                assert np.shares_memory(p, fam.stack)
                assert_same_bits(p, fam.stack[k])
                with pytest.raises(ValueError):
                    p[0, 0] = 2.0
            with pytest.raises(ValueError):
                fam.stack[0, 0, 0] = 2.0

    def test_from_columns_writes_the_hermitian_part(self, case):
        dim, rng, _, _ = case
        v = random_unitary(dim, rng).matrix
        widths = random_ranks(dim, rng, degenerate=True)
        (fam,) = qm.ProjectorFamily._from_column_stack(v[np.newaxis], [widths])
        for got, block in zip(fam.projectors, np.split(v, np.cumsum(widths)[:-1], axis=1)):
            p = block @ block.conj().T
            assert_same_bits(got, 0.5 * (p + p.conj().T))

    def test_outcome_probabilities(self, case):
        _, _, families, rho = case
        for fam in families.values():
            want = np.clip(loop_traces(rho.matrix, fam), 0.0, 1.0)
            assert_same_bits(qm.outcome_probabilities(rho, fam), want)

    def test_luders_channel(self, case):
        _, _, families, rho = case
        for fam in families.values():
            out = sum(p @ rho.matrix @ p for p in fam.projectors)
            assert_same_bits(qm.luders_channel(rho, fam).matrix, 0.5 * (out + out.conj().T))

    def test_overlap_matrix(self, case):
        _, _, families, _ = case
        for first in families.values():
            for second in families.values():
                want = [[np.trace(p @ q).real for q in second.projectors] for p in first.projectors]
                assert_same_bits(ent._overlaps(first, second), np.clip(np.array(want), 0.0, None))

    def test_minimality_weights(self, case):
        dim, rng, families, rho = case
        sigma = random_density(dim, rng=rng)
        for fam in families.values():
            result = ent._minimality(rho, sigma, qm.SpectralDecomposition(np.zeros(len(fam)), fam))
            assert_same_bits(result.q, np.clip(loop_traces(rho.matrix, fam), 0.0, None))
            assert_same_bits(result.p_tilde, np.clip(loop_traces(sigma.matrix, fam), 0.0, None))

    def test_assumption_and_build_sequential_model(self, case):
        dim, rng, families, _ = case
        u = random_unitary(dim, rng)
        for first in families.values():
            weights = rng.dirichlet(np.ones(len(first)))
            rho0 = qm.DensityOperator(
                sum((w / d) * p for w, d, p in zip(weights, first.degeneracies, first.projectors))
            )
            report = qm.assumption_holds(rho0, first)
            probs = loop_traces(rho0.matrix, first).clip(0.0, 1.0)
            weighted = [
                qm.max_abs(p @ rho0.matrix @ p - prob * p / d)
                for p, prob, d in zip(first.projectors, probs, first.degeneracies)
            ]
            assert report.weighted_residuals == tuple(weighted)
            assert report.residuals == tuple(w / p for w, p in zip(weighted, probs))
            for second in families.values():
                p_tilde = rng.dirichlet(np.ones(len(second)))
                model = qm.build_sequential_model(rho0, first, u, second, p_tilde)
                evolved = np.stack([u.matrix @ p @ u.matrix.conj().T for p in first.projectors])
                pi = np.einsum("jab,iba->ji", np.stack(second.projectors), evolved).real
                assert_same_bits(model.pi, np.where((pi < 0.0) & (pi > -qm.PROB_CLAMP), 0.0, pi))
                assert_same_bits(model.x, probs / first.degeneracies)

    def test_overlaps_hold_one_block_per_cluster(self):
        # 32 rank-1 clusters each: the full (k_r, k_s, d, d) product would be 16 MiB
        dim = 32
        rng = rng_for("overlap-memory")
        first = qm.spectral_projectors(random_density(dim, rng=rng).matrix).family
        second = qm.spectral_projectors(random_density(dim, rng=rng).matrix).family
        block = len(second) * dim * dim * 16
        tracemalloc.start()
        try:
            ent._overlaps(first, second)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * block


class TestPickle:
    """Unpickling goes through the public constructors."""

    @staticmethod
    def objects():
        rng = rng_for("pickle")
        rho = random_density(4, rng=rng)
        fam = random_pvm(4, [1, 2, 1], rng)
        spectral = qm.spectral_projectors(random_density(3, rng=rng).matrix).family
        model = sm.SequentialModel(pi=[[0.25, 0.5], [0.75, 0.5]], x=[0.5, 0.5], x_tilde=[0.5, 0.5])
        return rho, random_unitary(4, rng), fam, spectral, model

    def test_round_trip_restores_the_invariants(self):
        rho, u, fam, spectral, model = self.objects()
        back = pickle.loads(pickle.dumps(rho))
        for got, want in ((back.matrix, rho.matrix), (back.spectrum, rho.spectrum)):
            assert_same_bits(got, want)
            assert not got.flags.writeable
        back = pickle.loads(pickle.dumps(u))
        assert_same_bits(back.matrix, u.matrix)
        assert not back.matrix.flags.writeable
        for family in (fam, spectral):
            back = pickle.loads(pickle.dumps(family))
            assert_same_bits(back.stack, family.stack)
            assert_same_bits(back.degeneracies, family.degeneracies)
            assert not back.stack.flags.writeable
            for p in back.projectors:
                assert np.shares_memory(p, back.stack) and not p.flags.writeable
        back = pickle.loads(pickle.dumps(model))
        for got, want in zip((back.pi, back.x, back.x_tilde), (model.pi, model.x, model.x_tilde)):
            assert_same_bits(got, want)
            assert not got.flags.writeable

    def test_tampered_payload_raises(self):
        rho, u, fam, _, _ = self.objects()
        for obj, array in ((rho, rho.matrix), (u, u.matrix), (fam, fam.projectors[0])):
            tampered = np.array(array)
            tampered[0, 0] += 0.25
            payload = pickle.dumps(obj)
            assert payload.count(array.tobytes()) == 1
            with pytest.raises(InvalidOperatorError):
                pickle.loads(payload.replace(array.tobytes(), tampered.tobytes()))


def householder(dim, rng):
    """A random Householder reflection ``I - 2 v v† / |v|²``."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return np.eye(dim) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v).real


def column_family(u, ranks):
    """Projectors onto the consecutive column blocks of ``u`` with the given widths."""
    stops = np.cumsum(ranks)
    return [
        sum(np.outer(u[:, j], u[:, j].conj()) for j in range(stop - rank, stop))
        for stop, rank in zip(stops, ranks)
    ]


def hand_made_families():
    """Named inputs of the public ``ProjectorFamily`` constructor, valid and not."""
    rng = rng_for("family-errors")
    e = np.eye(3)
    non_hermitian = np.array([[1.0, 0.25], [0.0, 0.0]])  # idempotent, not Hermitian
    v = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    y = 1e200 + 1e200j
    overflow = np.array([[1.0, y], [np.conj(y), 0.0]])
    u5, u8 = householder(5, rng), householder(8, rng)
    turned = u5.copy()
    turned[:, 0] = (u5[:, 0] + 1e-6 * u5[:, 1]) / math.sqrt(1.0 + 1e-12)
    d8 = column_family(u8, [1] * 8)
    h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    families = {
        "computational": COMP_BASIS,
        "diagonal_degenerate": tuple(np.diag(row) for row in ([1, 1, 0, 0], [0, 0, 1, 0],
                                                              [0, 0, 0, 1])),
        "real_plus": (PLUS.real, np.eye(2) - PLUS.real),
        "householder_3": column_family(householder(3, rng), [1, 1, 1]),
        "householder_5_degenerate": column_family(u5, [2, 3]),
        "householder_8_degenerate": column_family(u8, [1, 2, 1, 4]),
        "householder_8_perturbed_within_tol": [d8[0] + 1e-11 * np.ones((8, 8)), *d8[1:]],
        "idempotent": (0.5 * np.eye(2), 0.5 * np.eye(2)),
        "hermitian": (non_hermitian, np.eye(2) - non_hermitian),
        "hermitian_before_idempotent": (
            np.pad(non_hermitian, (0, 1)), 0.5 * np.diag([0.0, 1.0, 1.0]),
            np.diag([0.0, 1.0, 1.0]) - np.pad(non_hermitian, (0, 1)),
        ),
        "orthogonal": (COMP_BASIS[0], COMP_BASIS[0]),
        "orthogonal_first_of_two_pairs": (np.diag(e[0]), np.diag(e[1]), np.outer(v, v)),
        "orthogonal_later_pair": (np.diag(e[0]), np.diag(e[1]), np.diag(e[1])),
        "complete": (COMP_BASIS[0],),
        "integer_degeneracy": (np.zeros((2, 2)), *COMP_BASIS),
        "overflow": (overflow, np.eye(2) - overflow),
        "nan": (np.diag([math.nan, 0.0]), COMP_BASIS[1]),
        "empty": (),
        "not_square": (np.zeros((2, 3)),),
        "mixed_dims": (np.eye(2), np.eye(3)),
        "householder_5_turned": column_family(turned, [1] * 5),
        "householder_8_perturbed": [*d8[:2], d8[2] + 1e-8 * (h + h.conj().T), *d8[3:]],
        "householder_8_non_hermitian_perturbed": [d8[0], d8[1] + 1e-7 * h, *d8[2:]],
        # P + P X (1 - P) is idempotent but not Hermitian
        "householder_8_oblique": [d8[0], d8[1] + 1e-7 * d8[1] @ h @ (np.eye(8) - d8[1]),
                                  *d8[2:]],
        "householder_8_incomplete": d8[:-1],
    }
    return {name: tuple(np.array(p) for p in projs) for name, projs in families.items()}


def family_outcome(projectors):
    """What the constructor gives: ranks and stack digest, or the error's every field."""
    try:
        fam = qm.ProjectorFamily(projectors)
    except (InvalidOperatorError, InputError, ShapeError) as exc:
        residual = getattr(exc, "residual", None)
        return (type(exc).__name__, getattr(exc, "constraint", None), str(exc),
                None if residual is None else float.hex(residual))
    return (fam.degeneracies.tolist(), hashlib.sha256(fam.stack.tobytes()).hexdigest()[:16])


FAMILY_OUTCOMES = {
    "computational": ([1, 1], "f46960f0b1794020"),
    "diagonal_degenerate": ([2, 1, 1], "b7fa14964d78bc02"),
    "real_plus": ([1, 1], "3ad74086573029aa"),
    "householder_3": ([1, 1, 1], "367624549fd94d73"),
    "householder_5_degenerate": ([2, 3], "85407669f257e4ff"),
    "householder_8_degenerate": ([1, 2, 1, 4], "ff7d16f3b6a145d6"),
    "householder_8_perturbed_within_tol": ([1, 1, 1, 1, 1, 1, 1, 1], "70b686db950a75f6"),
    "idempotent": (
        "InvalidOperatorError", "idempotent",
        "projector 0 is not idempotent [constraint=idempotent, residual=2.500e-01]",
        "0x1.0000000000000p-2",
    ),
    "hermitian": (
        "InvalidOperatorError", "hermitian",
        "projector 0 is not Hermitian [constraint=hermitian, residual=2.500e-01]",
        "0x1.0000000000000p-2",
    ),
    "hermitian_before_idempotent": (
        "InvalidOperatorError", "hermitian",
        "projector 0 is not Hermitian [constraint=hermitian, residual=2.500e-01]",
        "0x1.0000000000000p-2",
    ),
    "orthogonal": (
        "InvalidOperatorError", "orthogonal",
        "projectors 0 and 1 are not orthogonal [constraint=orthogonal, residual=1.000e+00]",
        "0x1.0000000000000p+0",
    ),
    "orthogonal_first_of_two_pairs": (
        "InvalidOperatorError", "orthogonal",
        "projectors 0 and 2 are not orthogonal [constraint=orthogonal, residual=5.000e-01]",
        "0x1.ffffffffffffep-2",
    ),
    "orthogonal_later_pair": (
        "InvalidOperatorError", "orthogonal",
        "projectors 1 and 2 are not orthogonal [constraint=orthogonal, residual=1.000e+00]",
        "0x1.0000000000000p+0",
    ),
    "complete": (
        "InvalidOperatorError", "complete",
        "projectors do not sum to the identity [constraint=complete, residual=1.000e+00]",
        "0x1.0000000000000p+0",
    ),
    "integer_degeneracy": (
        "InvalidOperatorError", "integer_degeneracy",
        "projector 0 has non-integer rank [constraint=integer_degeneracy, residual=0.000e+00]",
        "0x0.0p+0",
    ),
    "overflow": (
        "InvalidOperatorError", "idempotent",
        "projector 0 is not idempotent [constraint=idempotent, residual=nan]",
        "nan",
    ),
    "nan": (
        "InputError", None,
        "projector must have finite entries",
        None,
    ),
    "empty": (
        "ShapeError", None,
        "projector family must be non-empty",
        None,
    ),
    "not_square": (
        "ShapeError", None,
        "projector must be square, got shape (2, 3)",
        None,
    ),
    "mixed_dims": (
        "ShapeError", None,
        "all projectors must share one dimension",
        None,
    ),
    "householder_5_turned": (
        "InvalidOperatorError", "orthogonal",
        "projectors 0 and 1 are not orthogonal [constraint=orthogonal, residual=4.421e-07]",
        "0x1.dab4205c80050p-22",
    ),
    "householder_8_perturbed": (
        "InvalidOperatorError", "idempotent",
        "projector 2 is not idempotent [constraint=idempotent, residual=2.905e-08]",
        "0x1.f3041270f4c65p-26",
    ),
    "householder_8_non_hermitian_perturbed": (
        "InvalidOperatorError", "idempotent",
        "projector 1 is not idempotent [constraint=idempotent, residual=2.609e-07]",
        "0x1.183060b080eaep-22",
    ),
    "householder_8_oblique": (
        "InvalidOperatorError", "hermitian",
        "projector 1 is not Hermitian [constraint=hermitian, residual=1.562e-07]",
        "0x1.4f6e68aa3c22ep-23",
    ),
    "householder_8_incomplete": (
        "InvalidOperatorError", "complete",
        "projectors do not sum to the identity [constraint=complete, residual=9.843e-01]",
        "0x1.f7fa02f665f7cp-1",
    ),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(FAMILY_OUTCOMES))
def test_public_family_outcomes_are_pinned(name):
    assert family_outcome(hand_made_families()[name]) == FAMILY_OUTCOMES[name]

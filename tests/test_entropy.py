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
from seqmeas.harness import random_density, random_pvm, random_ranks, random_unitary

LOG2 = math.log(2.0)
#: the four-term closed form over the counterexample spectrum, correctly rounded
S_SIGMA_ORACLE = 1.1246702892376168


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

    def test_eigenvalues_at_or_just_below_zero_count_as_zero(self):
        """Spectra with entries in (-PSD_TOL, 0] give the bits of those entries set to +0.0."""
        below = np.nextafter(-qm.PSD_TOL, 0.0)  # the most negative eigenvalue a density may have
        spectra = {
            "rho": [0.6, 0.4, -0.5 * qm.PSD_TOL, -0.0, -5e-324],
            "sigma": [0.5, 0.25, 0.25 + 0.5 * qm.PSD_TOL, below, 0.0],  # trace 1 either way
            "sigma_inf": [0.7, -0.3 * qm.PSD_TOL, 0.3, 0.0, -0.0],
        }

        def densities(zeroed):
            out = {}
            for name, spectrum in spectra.items():
                values = np.array([0.0 if v <= 0.0 else v for v in spectrum])
                rho = qm.DensityOperator(np.diag(values if zeroed else spectrum).astype(complex))
                assert zeroed or (rho.spectrum < 0.0).any()  # the negative entries survive eigvalsh
                out[name] = rho
            return out

        def bits(ds):
            entropies = [ent.von_neumann_entropy(rho).hex() for rho in ds.values()]
            pairs = [ent.relative_entropy(a, b) for a in ds.values() for b in ds.values()]
            return entropies, [v.hex() for v in pairs], pairs

        entropies, pairs, values = bits(densities(zeroed=False))
        assert any(math.isinf(v) for v in values) and any(0.0 < v < math.inf for v in values)
        assert (entropies, pairs) == bits(densities(zeroed=True))[:2]

    def test_dimension_mismatch(self):
        rng = rng_for("rel-dim")
        with pytest.raises(ShapeError):
            ent.relative_entropy(random_density(2, rng=rng), random_density(3, rng=rng))


class TestKlein:
    def test_self_pair(self):
        rng = rng_for("klein-self")
        rho = random_density(4, rng=rng)
        assert abs(ent.relative_entropy(rho, rho)) <= 1e-12

    def test_random_pairs(self):
        rng = rng_for("klein-random")
        for k in range(100):
            dim = int(rng.integers(2, 9))
            rank_r = dim if k % 3 else int(rng.integers(1, dim + 1))
            rank_s = dim if k % 4 else int(rng.integers(1, dim + 1))
            rho = random_density(dim, rank_r, rng=rng)
            sigma = random_density(dim, rank_s, rng=rng)
            assert ent.relative_entropy(rho, sigma) >= -ent.VERDICT_TOL

    def test_counterexample(self):
        rho, sigma = ent.counterexample_pair()
        value = ent.relative_entropy(rho, sigma)
        assert value >= -ent.VERDICT_TOL
        assert value == pytest.approx(S_SIGMA_ORACLE, abs=1e-9)


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
    def test_entropies_reuse_the_validation_spectrum(self, monkeypatch):
        rng = rng_for("report-eigvalsh")
        rho, sigma = random_density(4, rng=rng), random_density(4, rank=2, rng=rng)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        report = ent.entropy_report(rho, sigma)
        assert calls == []
        assert report.s_rho == ent.von_neumann_entropy(rho) > 0.0
        # the spectrum a DensityOperator keeps is the one eigvalsh gives its matrix
        assert rho.spectrum.tobytes() == eigvalsh(rho.matrix).tobytes()

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

    @pytest.mark.parametrize(
        "s, infinite, near_boundary",
        [(1e-12, True, False), (5e-12, False, True), (1e-11, False, True), (1.1e-11, False, False)],
    )
    def test_support_boundary_flag(self, s, infinite, near_boundary):
        """rho = I/2 against sigma = diag(1 - s, s): s <= SUPPORT_EPS counts as zero, and
        SUPPORT_EPS < s <= 10 SUPPORT_EPS is finite but flagged as near the cutoff."""
        rho = qm.DensityOperator(np.eye(2) / 2)
        report = ent.entropy_report(rho, qm.DensityOperator(np.diag([1 - s, s])))
        assert math.isinf(report.rel_entropy) is infinite
        assert report.residuals.get("near_support_boundary") == (1.0 if near_boundary else None)


def test_entropy_functions_build_no_projector_family(monkeypatch):
    """They read the eigenbases of the spectral decompositions; no projector is formed."""
    calls = []
    original = qm.ProjectorFamily._outer_products

    def spy(family):
        calls.append(family.degeneracies.tolist())
        return original(family)

    monkeypatch.setattr(qm.ProjectorFamily, "_outer_products", spy)
    rho = random_density(6, rng=rng_for("no-family"))
    sigma = qm.DensityOperator(np.diag([0.25, 0.25, 0.25, 0.125, 0.125, 0.0]))  # degenerate
    for a, b in ((rho, sigma), (sigma, rho), (rho, rho)):
        ent.relative_entropy(a, b)
        ent.entropy_report(a, b)
        ent.is_minimal_pair(a, b)
    assert calls == []
    assert len(qm.spectral_projectors(sigma.matrix).family.stack) == 3  # the spy sees a stack read
    assert calls == [[1, 2, 3]]


def density_in_basis(eigenvalues, u) -> qm.DensityOperator:
    """U diag(eigenvalues) U†, exactly Hermitian; the eigenvalues sum to one."""
    m = (u * np.asarray(eigenvalues, dtype=float)) @ u.conj().T
    return qm.DensityOperator(0.5 * (m + m.conj().T))


def hard_pairs(dim, rng) -> list:
    """Pairs (rho, sigma) for the kernel: rank-deficient rho and sigma, clusters of three,
    sigma eigenvalues at 0.5, 1, 2 and 10 SUPPORT_EPS, and an infinite S(rho||sigma)."""
    def unitary():
        return random_unitary(dim, rng).matrix

    def spectrum(*head):
        rest = rng.dirichlet(np.ones(dim - len(head))) * (1.0 - sum(head))
        return [*head, *rest]

    u = unitary()
    pairs = [
        (random_density(dim, rng=rng), random_density(dim, rng=rng)),
        (random_density(dim, rank=2, rng=rng), random_density(dim, rng=rng)),
        # rank-deficient sigma under a full-rank rho: S(rho||sigma) = inf
        (random_density(dim, rng=rng), random_density(dim, rank=dim - 2, rng=rng)),
        # rho's support inside sigma's, both rank-deficient, in one basis: finite
        (density_in_basis([0.5, 0.5] + [0.0] * (dim - 2), u),
         density_in_basis([0.25, 0.25, 0.5] + [0.0] * (dim - 3), u)),
        # a cluster of three in each, and three zero eigenvalues in rho
        (density_in_basis(spectrum(0.1, 0.1, 0.1), unitary()),
         density_in_basis(spectrum(0.05, 0.05, 0.05), unitary())),
        (density_in_basis([0.0, 0.0, 0.0] + [1.0 / (dim - 3)] * (dim - 3), unitary()),
         random_density(dim, rng=rng)),
    ]
    for factor in (0.5, 1.0, 2.0, 10.0):
        sigma = density_in_basis(spectrum(factor * ent.SUPPORT_EPS), unitary())
        pairs.append((random_density(dim, rng=rng), sigma))
    pairs.append((pairs[0][0], pairs[0][0]))
    return pairs


def kernel_bits(result) -> tuple:
    rel, self_rel, near, m = result
    return (float(rel).hex(), float(self_rel).hex(), near, m.is_minimal, m.eigenvalues.tobytes(),
            m.degeneracies.tolist(), m.q.tobytes(), m.p_tilde.tobytes(), m.residuals.tobytes())


def kernel(stack, self_rels=True, minimalities=True) -> list:
    """The kernel on a stack, every pair asking for the same parts."""
    return ent._pair_entropies(stack, [self_rels] * len(stack), [minimalities] * len(stack))


@pytest.mark.parametrize("dim", [4, 8])
def test_kernel_on_a_stack_equals_one_pair_at_a_time(dim):
    """The stacked kernel gives each pair the bits of a call on that pair alone, in any
    order of the stack, and the public functions are its n = 1 case."""
    pairs = hard_pairs(dim, rng_for(f"kernel-stack-{dim}"))
    stack = np.array([np.stack((rho.matrix, sigma.matrix)) for rho, sigma in pairs])
    stacked = [kernel_bits(r) for r in kernel(stack)]
    alone = [kernel_bits(kernel(stack[i : i + 1])[0]) for i in range(len(stack))]
    assert stacked == alone
    assert [kernel_bits(r) for r in kernel(stack[::-1].copy())] == stacked[::-1]
    for (rho, sigma), bits in zip(pairs, stacked):
        report = ent.entropy_report(rho, sigma)
        assert float(report.rel_entropy).hex() == bits[0]
        assert float(ent.relative_entropy(rho, sigma)).hex() == bits[0]
        assert report.minimality.q.tobytes() == bits[6]
    # the pairs cover what they claim
    results = kernel(stack)
    assert math.isinf(results[2][0]) and not math.isinf(results[3][0])
    assert max(max(r[3].degeneracies) for r in results) >= 3
    assert any(r[2] for r in results[-5:-1])  # sigma's eigenvalue near the cutoff, flagged
    assert all(abs(r[1]) < 1e-12 for r in results)  # S(rho||rho)


def test_kernel_forms_only_the_parts_a_pair_asks_for():
    """A pair that does not ask for S(rho||rho) or the minimality weights reads None there,
    whatever the other pairs of its stack ask; what it does read keeps its bits."""
    pairs = hard_pairs(4, rng_for("kernel-parts"))
    stack = np.array([np.stack((rho.matrix, sigma.matrix)) for rho, sigma in pairs])
    full = [kernel_bits(r) for r in kernel(stack)]
    flags = [t % 2 == 0 for t in range(len(stack))]
    mixed = ent._pair_entropies(stack, flags, [not f for f in flags])
    for bits, (rel, self_rel, near, minimality), asks in zip(full, mixed, flags):
        assert (float(rel).hex(), near) == (bits[0], bits[2])
        if asks:
            assert float(self_rel).hex() == bits[1] and minimality is None
        else:
            assert self_rel is None and minimality.q.tobytes() == bits[6]
    bare = kernel(stack, False, False)
    assert [(float(r[0]).hex(), r[1], r[2], r[3]) for r in bare] == [
        (bits[0], None, bits[2], None) for bits in full]


def test_segment_sums_are_each_run_summed_alone():
    """Each run's sum has the bits of the run's own ``.sum()``, lengths 0 to 300 mixed."""
    rng = np.random.default_rng(7)
    counts = rng.integers(0, 300, size=60)
    counts[:3] = [0, 1, 8]
    values = rng.normal(size=counts.sum()) * 10.0 ** rng.integers(-8, 8, size=counts.sum())
    runs = np.split(values, np.cumsum(counts)[:-1])
    assert ent._segment_sums(values, counts).tolist() == [float(run.sum()) for run in runs]

"""Finite-dimensional quantum realisation of the sequential-measurement model.

Dense complex matrices (numpy, complex128) carry all operators.  The module
provides validated wrapper types (density operators, unitaries, complete
projector families), spectral eigenprojections, the Lueders channel,
the construction of a :class:`~seqmeas.stat_model.SequentialModel` from
quantum data, the two-point work protocol, and measurement dilation.
Public constructors (and so JSON loading) validate every axiom; families
built from orthonormal columns are checked once, through ``V†V = I``.

Conventions:
  * tensor products are left-factor-major, i.e. ``numpy.kron``;
  * max-norm ``|A|_max = max |A_ab|`` is used for all residuals;
  * spectral clusters are ordered by ascending eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionError,
    InconsistentModelError,
    InputError,
    InvalidOperatorError,
    ShapeError,
)
from .stat_model import SequentialModel

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
UNITARY_TOL = 1e-10
PROJECTOR_TOL = 1e-9
DEGENERACY_TOL = 1e-6
#: absolute tolerance for merging eigenvalues into one cluster
CLUSTER_TOL = 1e-8
#: bound on the residuals of the repeatability assumption
REPEATABILITY_TOL = 1e-8
#: outcome probabilities in [-PROB_CLAMP, 0) are treated as exact zeros
PROB_CLAMP = 1e-12


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-norm."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def _as_square_complex(a, what: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"{what} must be square, got shape {arr.shape}")
    if not np.isfinite(arr.real).all() or not np.isfinite(arr.imag).all():
        raise InputError(f"{what} must have finite entries")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace complex matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square_complex(self.matrix, "density operator")
        herm = max_abs(m - dagger(m))
        if herm >= HERMITIAN_TOL:
            raise InvalidOperatorError("density operator is not Hermitian", "hermitian", herm)
        min_eig = float(np.linalg.eigvalsh(m).min())
        if min_eig <= -PSD_TOL:
            raise InvalidOperatorError(
                "density operator is not positive semidefinite", "positive", -min_eig
            )
        trace_dev = abs(np.trace(m).real - 1.0)
        if trace_dev >= TRACE_TOL:
            raise InvalidOperatorError("density operator trace is not one", "unit_trace", trace_dev)
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Unitary:
    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square_complex(self.matrix, "unitary")
        dev = max_abs(dagger(m) @ m - np.eye(m.shape[0]))
        if dev >= UNITARY_TOL:
            raise InvalidOperatorError("matrix is not unitary", "unitary", dev)
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def identity_unitary(dim: int) -> Unitary:
    return Unitary(np.eye(dim, dtype=complex))


@dataclass(frozen=True)
class ProjectorFamily:
    """Complete family of mutually orthogonal projectors (a PVM).

    ``labels`` are the outcome indices, defaulting to 0..n-1 in the order
    supplied; no sorting happens inside the family.
    """

    projectors: tuple
    labels: tuple = ()

    def __post_init__(self):
        projs = tuple(_frozen(_as_square_complex(p, "projector")) for p in self.projectors)
        if not projs:
            raise ShapeError("projector family must be non-empty")
        dim = projs[0].shape[0]
        if any(p.shape[0] != dim for p in projs):
            raise ShapeError("all projectors must share one dimension")
        labels = tuple(self.labels) if self.labels else tuple(range(len(projs)))
        if len(labels) != len(projs):
            raise ShapeError("labels must match the number of projectors")
        for k, p in enumerate(projs):
            idem = max_abs(p @ p - p)
            if idem >= PROJECTOR_TOL:
                raise InvalidOperatorError(
                    f"projector {k} is not idempotent", "idempotent", idem
                )
            herm = max_abs(p - dagger(p))
            if herm >= PROJECTOR_TOL:
                raise InvalidOperatorError(
                    f"projector {k} is not Hermitian", "hermitian", herm
                )
        for a in range(len(projs)):
            for b in range(a + 1, len(projs)):
                ortho = max_abs(projs[a] @ projs[b])
                if ortho >= PROJECTOR_TOL:
                    raise InvalidOperatorError(
                        f"projectors {a} and {b} are not orthogonal", "orthogonal", ortho
                    )
        completeness = max_abs(sum(projs) - np.eye(dim))
        if completeness >= PROJECTOR_TOL:
            raise InvalidOperatorError(
                "projectors do not sum to the identity", "complete", completeness
            )
        degs = []
        for k, p in enumerate(projs):
            t = float(np.trace(p).real)
            if abs(t - round(t)) >= DEGENERACY_TOL or round(t) < 1:
                raise InvalidOperatorError(
                    f"projector {k} has non-integer rank", "integer_degeneracy", abs(t - round(t))
                )
            degs.append(int(round(t)))
        object.__setattr__(self, "projectors", projs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_degeneracies", np.array(degs, dtype=int))

    @classmethod
    def _from_columns(cls, v: np.ndarray, widths) -> "ProjectorFamily":
        """Family ``P_a = B_a B_a†`` of the consecutive column blocks ``B_a`` of a square ``v``.

        ``widths`` (positive, summing to the dimension d) become the degeneracies.
        The one check ``|E|_max < eps = PROJECTOR_TOL / d**2`` on ``E = V†V - I``
        implies every axiom ``__post_init__`` checks: ``VV† - I`` has the spectrum of
        ``E``, so completeness holds to ``d eps``; ``P_a P_b - delta_ab P_a =
        B_a E_ab B_b†`` is ``O(d eps)``; ``Tr P_a = w_a + Tr E_aa`` is within ``d eps``
        of ``w_a``; and ``0.5 (p + p†)`` is exactly Hermitian in floating point.
        """
        dev = max_abs(dagger(v) @ v - np.eye(len(v)))
        if dev >= PROJECTOR_TOL / len(v) ** 2:
            raise InvalidOperatorError("columns are not orthonormal", "orthonormal", dev)
        projectors = []
        for block in np.split(v, np.cumsum(widths)[:-1], axis=1):
            p = block @ dagger(block)
            projectors.append(_frozen(0.5 * (p + dagger(p))))
        family = object.__new__(cls)
        object.__setattr__(family, "projectors", tuple(projectors))
        object.__setattr__(family, "labels", tuple(range(len(projectors))))
        object.__setattr__(family, "_degeneracies", np.array(widths, dtype=int))
        return family

    def __len__(self) -> int:
        return len(self.projectors)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def degeneracies(self) -> np.ndarray:
        return self._degeneracies


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalue clusters and eigenprojections of a Hermitian operator."""

    eigenvalues: np.ndarray  # ascending cluster representatives
    family: ProjectorFamily

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))


def hermitian_eigendecomposition(a):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix."""
    m = _as_square_complex(a, "operator")
    dev = max_abs(m - dagger(m))
    if dev >= HERMITIAN_TOL:
        raise InputError(f"operator is not Hermitian (residual {dev:.3e})")
    return np.linalg.eigh(m)


def _cluster_slices(values: np.ndarray, cluster_tol: float) -> list:
    """Group ascending values into runs with consecutive gaps <= cluster_tol."""
    slices = []
    start = 0
    for k in range(1, len(values)):
        if values[k] - values[k - 1] > cluster_tol:
            slices.append(slice(start, k))
            start = k
    slices.append(slice(start, len(values)))
    return slices


def spectral_projectors(a) -> SpectralDecomposition:
    """Spectral decomposition with eigenvalues merged into clusters.

    Eigenvalues within ``CLUSTER_TOL`` of each other share one
    eigenprojection; each cluster's representative is the mean of its
    members and its degeneracy the cluster multiplicity.
    """
    w, v = hermitian_eigendecomposition(a)
    slices = _cluster_slices(w, CLUSTER_TOL)
    return SpectralDecomposition(
        eigenvalues=np.array([float(w[sl].mean()) for sl in slices]),
        family=ProjectorFamily._from_columns(v, [sl.stop - sl.start for sl in slices]),
    )


def outcome_probabilities(rho: DensityOperator, family: ProjectorFamily) -> np.ndarray:
    """p(i) = Tr(rho P_i), clamped to [0, 1]."""
    if rho.dim != family.dim:
        raise ShapeError(f"state dim {rho.dim} != family dim {family.dim}")
    p = np.array([np.trace(rho.matrix @ pr).real for pr in family.projectors])
    return np.clip(p, 0.0, 1.0)


def luders_channel(rho: DensityOperator, family: ProjectorFamily) -> DensityOperator:
    """Non-selective state change sum_i P_i rho P_i."""
    if rho.dim != family.dim:
        raise ShapeError(f"state dim {rho.dim} != family dim {family.dim}")
    out = sum(p @ rho.matrix @ p for p in family.projectors)
    return DensityOperator(0.5 * (out + dagger(out)))


@dataclass(frozen=True)
class AssumptionReport:
    """Per-outcome residuals of the repeatability assumption.

    ``residuals[i]`` is |P_i rho P_i / p(i) - P_i/d(i)|_max for outcomes
    with p(i) > 0 and None otherwise; ``holds`` covers only those testable
    outcomes.  ``weighted_residuals[i]`` is the unnormalised block
    deviation |P_i rho P_i - p(i) P_i/d(i)|_max, which stays well
    conditioned as p(i) -> 0 (the normalised residual divides float noise
    by p(i)).  ``all_outcomes_populated`` records whether every outcome
    has positive probability.
    """

    holds: bool
    residuals: tuple
    weighted_residuals: tuple
    weighted_holds: bool
    probabilities: np.ndarray
    all_outcomes_populated: bool


def assumption_holds(rho0: DensityOperator, family: ProjectorFamily) -> AssumptionReport:
    """Check that selection leaves the maximally mixed state on each eigenspace."""
    probs = outcome_probabilities(rho0, family)
    degs = family.degeneracies
    residuals = []
    weighted = []
    worst = 0.0
    for p, prob, d in zip(family.projectors, probs, degs):
        block_dev = max_abs(p @ rho0.matrix @ p - prob * p / d)
        weighted.append(block_dev)
        if prob <= PROB_CLAMP:
            residuals.append(None)
            continue
        r = block_dev / prob
        residuals.append(r)
        worst = max(worst, r)
    return AssumptionReport(
        holds=worst < REPEATABILITY_TOL,
        residuals=tuple(residuals),
        weighted_residuals=tuple(weighted),
        weighted_holds=max(weighted) < REPEATABILITY_TOL,
        probabilities=probs,
        all_outcomes_populated=bool((probs > PROB_CLAMP).all()),
    )


def build_sequential_model(
    rho0: DensityOperator,
    first_family: ProjectorFamily,
    u: Unitary,
    second_family: ProjectorFamily,
    p_tilde,
    probabilities=None,
) -> SequentialModel:
    """Assemble the abstract model of two sequential projective measurements.

    Pi(j|i) = Tr(Q_j U P_i U*), x(i) = p(i)/d(i), x_tilde(j) =
    p_tilde(j)/d_tilde(j).  Requires the repeatability assumption for
    (rho0, first_family) and a strictly positive p_tilde summing to one.
    The result always satisfies the model axioms.

    ``probabilities`` optionally supplies the first-measurement
    distribution p(i) when the caller knows it analytically (e.g. exact
    Boltzmann weights); it must agree with Tr(rho0 P_i) to within 1e-10.
    Tiny weights lose all relative accuracy when recovered from traces,
    which matters to exponentially weighted expectations downstream.
    """
    dim = rho0.dim
    if first_family.dim != dim or second_family.dim != dim or u.dim != dim:
        raise ShapeError("state, families and unitary must share one dimension")
    p_tilde = np.asarray(p_tilde, dtype=float)
    if p_tilde.shape != (len(second_family),):
        raise ShapeError(
            f"p_tilde has shape {p_tilde.shape}, expected ({len(second_family)},)"
        )
    if bool((p_tilde <= 0.0).any()):
        raise InputError("p_tilde must be strictly positive on every outcome")
    if abs(p_tilde.sum() - 1.0) > 1e-10:
        raise InputError(f"p_tilde sums to {p_tilde.sum():.15g}, expected 1")
    # gate on the weighted residuals: the normalised ones blow up float
    # noise by 1/p(i) on exact low-probability branches
    report = assumption_holds(rho0, first_family)
    if not report.weighted_holds:
        worst = max(report.weighted_residuals)
        raise AssumptionError(
            f"repeatability assumption fails (worst weighted residual {worst:.3e})", report
        )

    evolved = np.stack([u.matrix @ p @ dagger(u.matrix) for p in first_family.projectors])
    seconds = np.stack(second_family.projectors)
    pi = np.einsum("jab,iba->ji", seconds, evolved).real
    pi = np.where((pi < 0.0) & (pi > -PROB_CLAMP), 0.0, pi)

    if probabilities is None:
        p = report.probabilities
    else:
        p = np.asarray(probabilities, dtype=float)
        if p.shape != report.probabilities.shape:
            raise ShapeError(
                f"probabilities has shape {p.shape}, expected {report.probabilities.shape}"
            )
        if bool((p < 0.0).any()) or abs(p.sum() - 1.0) > 1e-10:
            raise InputError("probabilities must be a distribution over first outcomes")
        dev = max_abs(p - report.probabilities)
        if dev >= 1e-10:
            raise InputError(
                f"supplied probabilities disagree with Tr(rho0 P_i) by {dev:.3e}"
            )
    x = p / first_family.degeneracies
    x_tilde = p_tilde / second_family.degeneracies
    model = SequentialModel(pi=pi, x=x, x_tilde=x_tilde)

    # cross-check: the induced joint distribution must match the Born rule
    joint = (pi * x[np.newaxis, :]).T
    direct = np.einsum(
        "jab,iba->ji",
        seconds,
        np.stack(
            [
                u.matrix @ pr @ rho0.matrix @ pr @ dagger(u.matrix)
                for pr in first_family.projectors
            ]
        ),
    ).real.T
    dev = max_abs(joint - direct)
    if dev >= 1e-10:
        raise InconsistentModelError(
            f"induced joint distribution deviates from the Born rule by {dev:.3e}"
        )
    return model


@dataclass(frozen=True)
class WorkProtocolResult:
    """Two-point work statistics and the two sides of the Jarzynski equality."""

    work: np.ndarray         # (n_first, n_second); w(i,j) = F_j - E_i
    probability: np.ndarray  # forward joint distribution over (i, j)
    lhs: float               # <exp(-beta w)>
    rhs: float               # exp(-beta dF)
    delta_f: float
    model: SequentialModel
    energies_first: np.ndarray
    energies_second: np.ndarray


def two_point_work_protocol(h0, h1, u: Unitary, beta: float) -> WorkProtocolResult:
    """Energy measurement, unitary drive, energy measurement.

    The initial state is the Boltzmann state of ``h0`` (so the
    repeatability assumption holds automatically) and the reference
    distribution is the Boltzmann distribution of ``h1``, which makes the
    J-equation the Jarzynski equality <exp(-beta w)> = exp(-beta dF).
    """
    if beta <= 0:
        raise InputError("beta must be positive")
    sd0 = spectral_projectors(h0)
    sd1 = spectral_projectors(h1)
    if sd0.family.dim != sd1.family.dim or u.dim != sd0.family.dim:
        raise ShapeError("h0, h1 and u must share one dimension")
    energies0 = sd0.eigenvalues
    energies1 = sd1.eigenvalues
    d0 = sd0.family.degeneracies.astype(float)
    d1 = sd1.family.degeneracies.astype(float)

    # shifted Boltzmann weights avoid overflow at large beta
    w0 = np.exp(-beta * (energies0 - energies0.min()))
    z0_shifted = float((d0 * w0).sum())
    rho0 = DensityOperator(
        sum((wi / z0_shifted) * p for wi, p in zip(w0, sd0.family.projectors))
    )
    w1 = np.exp(-beta * (energies1 - energies1.min()))
    z1_shifted = float((d1 * w1).sum())
    p_tilde = d1 * w1 / z1_shifted

    # pass the analytic Boltzmann weights: traces cannot resolve the
    # exponentially small ones to relative accuracy
    model = build_sequential_model(
        rho0, sd0.family, u, sd1.family, p_tilde, probabilities=d0 * w0 / z0_shifted
    )
    work = energies1[np.newaxis, :] - energies0[:, np.newaxis]
    probability = (model.pi * model.x[np.newaxis, :]).T
    lhs = float((probability * np.exp(-beta * work)).sum())
    log_ratio = (
        math.log(z1_shifted) - beta * energies1.min()
        - math.log(z0_shifted) + beta * energies0.min()
    )
    rhs = math.exp(log_ratio)
    return WorkProtocolResult(
        work=work,
        probability=probability,
        lhs=lhs,
        rhs=rhs,
        delta_f=-log_ratio / beta,
        model=model,
        energies_first=energies0,
        energies_second=energies1,
    )


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product, left factor major: (A o B)[(a1,b1),(a2,b2)] = A[a1,a2] B[b1,b2]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(rho, dims: tuple, keep: int) -> np.ndarray:
    """Partial trace of an operator on a bipartite space.

    ``dims = (d1, d2)`` are the factor dimensions under the
    :func:`tensor_product` convention; ``keep`` selects the surviving
    factor (1 or 2).
    """
    m = _as_square_complex(rho, "operator")
    d1, d2 = int(dims[0]), int(dims[1])
    if d1 * d2 != m.shape[0]:
        raise ShapeError(f"cannot split dimension {m.shape[0]} as {d1}x{d2}")
    if keep not in (1, 2):
        raise InputError("keep must be 1 or 2")
    t = m.reshape(d1, d2, d1, d2)
    if keep == 1:
        return np.einsum("abcb->ac", t)
    return np.einsum("abac->bc", t)


@dataclass(frozen=True)
class DilationResult:
    """Entropy bookkeeping of a dilated measurement.

    ``sigma`` is the object state after coupling, ancilla measurement and
    partial trace; ``rho_prime`` the total state after the equivalent
    Lueders measurement.  The chain s1 <= s2 <= s3 always holds, while the
    object entropy S(sigma) may drop below s1.
    """

    sigma: DensityOperator
    rho_prime: DensityOperator
    s1: float
    s2: float
    s31: float
    s32: float
    s3: float


def dilation_analysis(
    rho: DensityOperator,
    u_total: Unitary,
    ancilla_family: ProjectorFamily,
    phi,
) -> DilationResult:
    """Dilate a measurement through an ancilla and track all entropies."""
    from .entropy import von_neumann_entropy  # deferred: entropy imports this module

    d1 = rho.dim
    d2 = ancilla_family.dim
    if u_total.dim != d1 * d2:
        raise ShapeError(
            f"total unitary has dimension {u_total.dim}, expected {d1 * d2}"
        )
    phi = np.asarray(phi, dtype=complex).ravel()
    if phi.shape[0] != d2:
        raise ShapeError(f"ancilla state has length {phi.shape[0]}, expected {d2}")
    norm_dev = abs(float(np.linalg.norm(phi)) - 1.0)
    if norm_dev >= 1e-10:
        raise InputError(f"ancilla state must be normalised (residual {norm_dev:.3e})")

    p_phi = np.outer(phi, phi.conj())
    initial = tensor_product(rho.matrix, p_phi)
    u = u_total.matrix
    eye1 = np.eye(d1)

    evolved = u @ initial @ dagger(u)
    lifted = [tensor_product(eye1, p) for p in ancilla_family.projectors]
    selected = sum(lp @ evolved @ lp for lp in lifted)
    sigma = DensityOperator(partial_trace(selected, (d1, d2), keep=1))

    q_projs = [dagger(u) @ lp @ u for lp in lifted]
    rho_prime_m = sum(q @ initial @ q for q in q_projs)
    rho_prime = DensityOperator(0.5 * (rho_prime_m + dagger(rho_prime_m)))

    s1 = von_neumann_entropy(rho)
    s2 = von_neumann_entropy(rho_prime)
    s31 = von_neumann_entropy(DensityOperator(partial_trace(rho_prime.matrix, (d1, d2), keep=1)))
    s32 = von_neumann_entropy(DensityOperator(partial_trace(rho_prime.matrix, (d1, d2), keep=2)))
    return DilationResult(
        sigma=sigma,
        rho_prime=rho_prime,
        s1=s1,
        s2=s2,
        s31=s31,
        s32=s32,
        s3=s31 + s32,
    )


# ---------------------------------------------------------------------------
# JSON wire format: {"dim": n, "entries": [[[re, im], ...], ...]} row-major
# ---------------------------------------------------------------------------

def matrix_to_json(a) -> dict:
    m = _as_square_complex(a, "matrix")
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    return {"dim": m.shape[0], "entries": entries}


def matrix_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise InputError('complex matrix document needs keys "dim" and "entries"')
    dim = int(obj["dim"])
    entries = obj["entries"]
    if len(entries) != dim or any(len(row) != dim for row in entries):
        raise ShapeError(f"entries do not form a {dim}x{dim} matrix")
    try:
        arr = np.array(
            [[complex(pair[0], pair[1]) for pair in row] for row in entries], dtype=complex
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise InputError(f"matrix entries must be [re, im] pairs: {exc}") from exc
    return arr


def density_from_json(obj: dict) -> DensityOperator:
    return DensityOperator(matrix_from_json(obj))


def unitary_from_json(obj: dict) -> Unitary:
    return Unitary(matrix_from_json(obj))


def hermitian_from_json(obj: dict) -> np.ndarray:
    m = matrix_from_json(obj)
    dev = max_abs(m - dagger(m))
    if dev >= HERMITIAN_TOL:
        raise InvalidOperatorError("matrix is not Hermitian", "hermitian", dev)
    return m


def family_from_json(objs) -> ProjectorFamily:
    return ProjectorFamily(tuple(matrix_from_json(o) for o in objs))

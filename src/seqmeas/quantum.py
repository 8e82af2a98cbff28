"""Finite-dimensional quantum realisation of the sequential-measurement model.

Dense complex matrices (numpy, complex128) carry all operators.  The module
provides validated wrapper types (density operators, unitaries, complete
projector families), spectral eigenprojections, the Lueders channel,
the construction of a :class:`~seqmeas.stat_model.SequentialModel` from
quantum data, the two-point work protocol, and measurement dilation.
Public constructors (and so JSON loading and unpickling) validate every
axiom; families built from orthonormal columns are checked once, through
``V†V = I``.  Trial generation validates densities and column families a
stack at a time, bit for bit as one at a time, and forms an all-rank-one
family's projectors in one batched ``(d, 1) @ (1, d)`` product.  A family
holds its projectors as one read-only ``(k, d, d)`` stack, and the Born,
overlap and Lueders kernels are batched matmuls over it.  A
:class:`DensityOperator` keeps the spectrum its positivity check computes,
so its entropy needs no second decomposition.

Conventions:
  * tensor products are left-factor-major, i.e. ``numpy.kron``;
  * max-norm ``|A|_max = max |A_ab|`` is used for all residuals;
  * spectral clusters are ordered by ascending eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import (
    AssumptionError,
    InconsistentModelError,
    InputError,
    InvalidOperatorError,
    ShapeError,
)
from .stat_model import SequentialModel, real_array

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
    return np.swapaxes(a.conj(), -1, -2)


def stack_traces(a: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``Re Tr(a P_k)`` for every matrix ``P_k`` of a ``(k, d, d)`` stack."""
    return np.trace(a @ stack, axis1=1, axis2=2).real


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
        spectrum = self._spectra(m)
        object.__setattr__(self, "matrix", _frozen(m))
        object.__setattr__(self, "_spectrum", spectrum)

    def __reduce__(self):
        return type(self), (self.matrix,)

    @staticmethod
    def _spectra(ms: np.ndarray) -> np.ndarray:
        """Read-only ``eigvalsh`` spectra of a finite matrix or stack, checked as density operators.

        An error reports the stack's worst residual, the matrix's own for one matrix.
        """
        herm = max_abs(ms - dagger(ms))
        if herm >= HERMITIAN_TOL:
            raise InvalidOperatorError("density operator is not Hermitian", "hermitian", herm)
        spectra = np.linalg.eigvalsh(ms)
        min_eig = float(spectra.min())
        if min_eig <= -PSD_TOL:
            raise InvalidOperatorError(
                "density operator is not positive semidefinite", "positive", -min_eig
            )
        trace_dev = float(np.abs(np.trace(ms, axis1=-2, axis2=-1).real - 1.0).max())
        if trace_dev >= TRACE_TOL:
            raise InvalidOperatorError("density operator trace is not one", "unit_trace", trace_dev)
        spectra.setflags(write=False)
        return spectra

    @classmethod
    def _stack(cls, ms: np.ndarray) -> list:
        """Density operators of a ``(n, d, d)`` stack, checked as one stack."""
        if not np.isfinite(ms).all():
            raise InputError("density operator must have finite entries")
        out = [object.__new__(cls) for _ in ms]
        for rho, m, spectrum in zip(out, ms, cls._spectra(ms)):
            object.__setattr__(rho, "matrix", _frozen(m))
            object.__setattr__(rho, "_spectrum", spectrum)
        return out

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues, as ``eigvalsh`` gave them to the positivity check."""
        return self._spectrum


@dataclass(frozen=True)
class Unitary:
    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square_complex(self.matrix, "unitary")
        dev = max_abs(dagger(m) @ m - np.eye(m.shape[0]))
        if dev >= UNITARY_TOL:
            raise InvalidOperatorError("matrix is not unitary", "unitary", dev)
        object.__setattr__(self, "matrix", _frozen(m))

    def __reduce__(self):
        return type(self), (self.matrix,)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def identity_unitary(dim: int) -> Unitary:
    return Unitary(np.eye(dim, dtype=complex))


@dataclass(frozen=True)
class ProjectorFamily:
    """Complete family of mutually orthogonal projectors (a PVM).

    ``labels`` are the outcome indices, defaulting to 0..n-1 in the order
    supplied; no sorting happens inside the family.  ``projectors`` are
    read-only views into ``stack``, the one ``(k, d, d)`` copy of them.
    """

    projectors: tuple
    labels: tuple = ()

    def __post_init__(self):
        projs = tuple(_as_square_complex(p, "projector") for p in self.projectors)
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
        self._hold(np.stack(projs), degs, labels)

    def _hold(self, stack: np.ndarray, degeneracies, labels) -> None:
        stack.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "projectors", tuple(stack))
        object.__setattr__(self, "_degeneracies", np.array(degeneracies, dtype=int))

    def __reduce__(self):
        return type(self), (self.projectors, self.labels)

    @classmethod
    def _from_columns(cls, v: np.ndarray, widths) -> "ProjectorFamily":
        """Family ``P_a = B_a B_a†`` of the consecutive column blocks ``B_a`` of square ``v``."""
        return cls._from_column_stack(v[np.newaxis], [widths])[0]

    @classmethod
    def _from_column_stack(cls, vs: np.ndarray, widths) -> list:
        """``_from_columns(vs[i], widths[i])`` for each matrix of a ``(n, d, d)`` stack.

        ``widths`` (positive, summing to the dimension d) become the degeneracies.
        The one check ``|E|_max < eps = PROJECTOR_TOL / d**2`` on ``E = V†V - I``,
        made on the whole stack, implies every axiom ``__post_init__`` checks:
        ``VV† - I`` has the spectrum of ``E``, so completeness holds to ``d eps``;
        ``P_a P_b - delta_ab P_a = B_a E_ab B_b†`` is ``O(d eps)``; ``Tr P_a = w_a +
        Tr E_aa`` is within ``d eps`` of ``w_a``; and ``0.5 (p + p†)`` is exactly
        Hermitian in floating point.  A NaN fails the check.
        """
        d = vs.shape[-1]
        dev = float(np.abs(dagger(vs) @ vs - np.eye(d)).max())
        if not dev < PROJECTOR_TOL / d**2:
            raise InvalidOperatorError("columns are not orthonormal", "orthonormal", dev)
        out = []
        for v, w in zip(vs, widths):
            if len(w) == d:  # all rank one: one batched (d, 1) @ (1, d) product
                columns = v.T[:, :, np.newaxis]
                stack = columns @ dagger(columns)
            else:
                stack = np.empty((len(w), d, d), dtype=complex)
                for p, stop, width in zip(stack, accumulate(w), w):
                    block = v[:, stop - width : stop]
                    np.matmul(block, dagger(block), out=p)
            out.append(object.__new__(cls))
            out[-1]._hold(0.5 * (stack + dagger(stack)), w, tuple(range(len(w))))
        return out

    def __len__(self) -> int:
        return len(self.projectors)

    @property
    def dim(self) -> int:
        return self._stack.shape[1]

    @property
    def stack(self) -> np.ndarray:
        return self._stack

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
    cuts = (np.flatnonzero(np.diff(w) > CLUSTER_TOL) + 1).tolist()
    bounds = list(zip([0, *cuts], [*cuts, len(w)]))
    return SpectralDecomposition(
        # a one-member cluster's mean is its member
        eigenvalues=np.array([w[lo] if hi - lo == 1 else w[lo:hi].mean() for lo, hi in bounds]),
        family=ProjectorFamily._from_columns(v, [hi - lo for lo, hi in bounds]),
    )


def outcome_probabilities(rho: DensityOperator, family: ProjectorFamily) -> np.ndarray:
    """p(i) = Tr(rho P_i), clamped to [0, 1]."""
    if rho.dim != family.dim:
        raise ShapeError(f"state dim {rho.dim} != family dim {family.dim}")
    return np.clip(stack_traces(rho.matrix, family.stack), 0.0, 1.0)


def luders_channel(rho: DensityOperator, family: ProjectorFamily) -> DensityOperator:
    """Non-selective state change sum_i P_i rho P_i."""
    if rho.dim != family.dim:
        raise ShapeError(f"state dim {rho.dim} != family dim {family.dim}")
    out = (family.stack @ rho.matrix @ family.stack).sum(axis=0)
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
    s = family.stack
    blocks = s @ rho0.matrix @ s - probs[:, None, None] * s / family.degeneracies[:, None, None]
    weighted = np.abs(blocks).max(axis=(1, 2))
    residuals = tuple(None if p <= PROB_CLAMP else w / p for w, p in zip(weighted.tolist(), probs))
    return AssumptionReport(
        holds=all(r is None or r < REPEATABILITY_TOL for r in residuals),
        residuals=residuals,
        weighted_residuals=tuple(weighted.tolist()),
        weighted_holds=bool(weighted.max() < REPEATABILITY_TOL),
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

    firsts, seconds = first_family.stack, second_family.stack
    pi = np.einsum("jab,iba->ji", seconds, u.matrix @ firsts @ dagger(u.matrix)).real
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
    selected = u.matrix @ firsts @ rho0.matrix @ firsts @ dagger(u.matrix)
    direct = np.einsum("jab,iba->ji", seconds, selected).real.T
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
    rho0 = DensityOperator(((w0 / z0_shifted)[:, None, None] * sd0.family.stack).sum(axis=0))
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
    lifted = tensor_product(eye1, ancilla_family.stack)
    selected = (lifted @ evolved @ lifted).sum(axis=0)
    sigma = DensityOperator(partial_trace(selected, (d1, d2), keep=1))

    q_projs = dagger(u) @ lifted @ u
    rho_prime_m = (q_projs @ initial @ q_projs).sum(axis=0)
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
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
        raise InputError(f'matrix "dim" must be an integer, got {dim!r}')
    pairs = real_array(obj["entries"])
    if pairs is not None and pairs.shape[:2] != (dim, dim):
        raise ShapeError(f"entries do not form a {dim}x{dim} matrix")
    if pairs is None or pairs.shape != (dim, dim, 2):
        raise InputError("matrix entries must be [re, im] pairs of numbers")
    return pairs.view(complex)[..., 0]


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

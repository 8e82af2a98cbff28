"""Finite-dimensional quantum realisation of the sequential-measurement model.

Dense complex matrices (numpy, complex128) carry all operators.  The module
provides validated wrapper types (density operators, unitaries, complete
projector families), spectral eigenprojections, the Lueders channel,
the construction of a :class:`~seqmeas.stat_model.SequentialModel` from
quantum data, the two-point work protocol, and measurement dilation.
Public constructors (and so JSON loading and unpickling) validate every
axiom; each single-comparison gate goes through ``_gate``, which passes
only when ``residual < tol``, so a NaN fails.  A public family is checked
as one ``(k, d, d)`` stack; families built from orthonormal columns are
checked once, through ``V†V = I``.  Trial generation validates densities
and column families a stack at a time, bit for bit as one at a time, and
forms an all-rank-one family's projectors in one batched
``(d, 1) @ (1, d)`` product.  Functions made with ``_one_at_a_time`` yield
requests for stacked kernels (such as ``spectral_projectors`` of a stack);
:func:`_build` runs a batch of them.
``ProjectorFamily(projectors)`` keeps its projectors as one read-only
``(k, d, d)`` array, ``stack``, and their ranks as ``degeneracies``; the
Born, overlap and Lueders kernels are batched matmuls over ``stack``.  A
DensityOperator keeps the ``spectrum`` its positivity check computes.

Conventions:
  * tensor products are left-factor-major, i.e. ``numpy.kron``;
  * max-norm ``|A|_max = max |A_ab|`` is used for all residuals;
  * spectral clusters are ordered by ascending eigenvalue.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import (
    AssumptionError,
    InconsistentModelError,
    InputError,
    InvalidOperatorError,
    SeqMeasError,
    ShapeError,
)
from .stat_model import SequentialModel, exact_keys, real_array

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


def _as_square_complex(a, what: str = "matrix", ndims=(2,)) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.ndim not in ndims or arr.shape[-1] != arr.shape[-2]:
        raise ShapeError(f"{what} must be square, got shape {arr.shape}")
    if not arr.shape[-1]:
        raise ShapeError(f"{what} must have dimension at least 1")
    if not np.isfinite(arr.real).all() or not np.isfinite(arr.imag).all():
        raise InputError(f"{what} must have finite entries")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


def _gate(residual, tol: float, message: str, constraint: str) -> None:
    """Raise ``InvalidOperatorError`` unless ``residual < tol``, so a NaN fails."""
    if not residual < tol:
        raise InvalidOperatorError(message, constraint, residual)


def _build(steps: list) -> list:
    """Run a batch of steps side by side; each entry becomes its steps' value or error.

    Steps are generators that yield requests ``(kind, array, *args)`` and are
    sent their results.  Each round, the requests are grouped by kind and array
    shape, and one call ``kind(stack, *per-request args)`` answers a group.  An
    entry that is an error already stays as it is.
    """
    out = list(steps)
    sends = {t: None for t, step in enumerate(steps) if not isinstance(step, Exception)}
    while sends:
        groups: dict = {}
        for t, value in sends.items():
            try:
                step = steps[t].throw if isinstance(value, Exception) else steps[t].send
                kind, array, *args = step(value)
                groups.setdefault((kind, array.shape), []).append((t, array, args))
            except StopIteration as stop:
                out[t] = stop.value
            except (SeqMeasError, np.linalg.LinAlgError) as exc:
                out[t] = exc
        sends = {}
        for (kind, _), requests in groups.items():
            sends.update(zip([t for t, _, _ in requests], _stacked(kind, requests)))
    return out


def _stacked(kind, requests: list) -> list:
    """A group's results; if the stack fails, each request is rerun alone and may get an error."""
    try:
        return kind(np.array([a for _, a, _ in requests]), *zip(*(args for *_, args in requests)))
    except (SeqMeasError, np.linalg.LinAlgError) as exc:
        if len(requests) == 1:
            return [exc]
        return [result for request in requests for result in _stacked(kind, [request])]


def _alone(steps):
    """The value of one generator of steps, run as a batch of one; its error is raised."""
    (value,) = _build([steps])
    if isinstance(value, Exception):
        raise value
    return value


def _one_at_a_time(steps):
    """Generator function ``steps`` run by :func:`_alone`, keeping it as ``.steps``
    for callers that run a batch of it side by side."""
    @functools.wraps(steps)
    def alone(*args, **kwargs):
        return _alone(steps(*args, **kwargs))

    alone.steps = steps
    return alone


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace matrix with its ascending ``spectrum``."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square_complex(self.matrix, "density operator")
        spectrum = self._spectra(m)
        object.__setattr__(self, "matrix", _frozen(m))
        object.__setattr__(self, "spectrum", spectrum)

    def __reduce__(self):
        return type(self), (self.matrix,)

    @staticmethod
    def _spectra(ms: np.ndarray) -> np.ndarray:
        """Read-only ``eigvalsh`` spectra of a finite matrix or stack, checked as density operators.

        An error reports the stack's worst residual, the matrix's own for one matrix.
        """
        _gate(max_abs(ms - dagger(ms)), HERMITIAN_TOL, "density operator is not Hermitian",
              "hermitian")
        spectra = np.linalg.eigvalsh(ms)
        _gate(-float(spectra.min()), PSD_TOL, "density operator is not positive semidefinite",
              "positive")
        trace_dev = float(np.abs(np.trace(ms, axis1=-2, axis2=-1).real - 1.0).max())
        _gate(trace_dev, TRACE_TOL, "density operator trace is not one", "unit_trace")
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
            object.__setattr__(rho, "spectrum", spectrum)
        return out

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Unitary:
    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square_complex(self.matrix, "unitary")
        dev = max_abs(dagger(m) @ m - np.eye(m.shape[0]))
        _gate(dev, UNITARY_TOL, "matrix is not unitary", "unitary")
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

    Outcome ``k`` is ``projectors[k]``, in the order supplied.  The
    ``projectors`` are read-only views into ``stack``, the one ``(k, d, d)``
    copy of them, and ``degeneracies`` holds their ranks.
    """

    projectors: tuple

    def __post_init__(self):
        projs = [_as_square_complex(p, "projector") for p in self.projectors]
        if not projs:
            raise ShapeError("projector family must be non-empty")
        if any(p.shape != projs[0].shape for p in projs):
            raise ShapeError("all projectors must share one dimension")
        s = np.stack(projs)
        # argmin finds the first projector (then pair) that fails a check, NaN included
        idem = np.abs(s @ s - s).max(axis=(1, 2))
        herm = np.abs(s - dagger(s)).max(axis=(1, 2))
        k = int(np.argmin((idem < PROJECTOR_TOL) & (herm < PROJECTOR_TOL)))
        _gate(idem[k], PROJECTOR_TOL, f"projector {k} is not idempotent", "idempotent")
        _gate(herm[k], PROJECTOR_TOL, f"projector {k} is not Hermitian", "hermitian")
        for a in range(len(s) - 1):
            ortho = np.abs(s[a] @ s[a + 1 :]).max(axis=(1, 2))
            b = int(np.argmin(ortho < PROJECTOR_TOL))
            _gate(ortho[b], PROJECTOR_TOL, f"projectors {a} and {a + 1 + b} are not orthogonal",
                  "orthogonal")
        _gate(max_abs(sum(s) - np.eye(s.shape[1])), PROJECTOR_TOL,
              "projectors do not sum to the identity", "complete")
        traces = np.trace(s, axis1=1, axis2=2).real
        ranks = np.round(traces)
        off = np.abs(traces - ranks)
        k = int(np.argmin((off < DEGENERACY_TOL) & (ranks >= 1)))
        if not (off[k] < DEGENERACY_TOL and ranks[k] >= 1):
            raise InvalidOperatorError(
                f"projector {k} has non-integer rank", "integer_degeneracy", off[k]
            )
        self._hold(s, ranks)

    def _hold(self, stack: np.ndarray, degeneracies) -> None:
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "projectors", tuple(stack))
        object.__setattr__(self, "degeneracies", np.array(degeneracies, dtype=int))

    def __reduce__(self):
        return type(self), (self.projectors,)

    @classmethod
    def _from_column_stack(cls, vs: np.ndarray, widths) -> list:
        """Families ``P_a = B_a B_a†`` of the consecutive column blocks ``B_a`` of ``vs[i]``.

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
        _gate(dev, PROJECTOR_TOL / d**2, "columns are not orthonormal", "orthonormal")
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
            out[-1]._hold(0.5 * (stack + dagger(stack)), w)
        return out

    def __len__(self) -> int:
        return len(self.projectors)

    @property
    def dim(self) -> int:
        return self.stack.shape[1]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalue clusters and eigenprojections of a Hermitian operator."""

    eigenvalues: np.ndarray  # ascending cluster representatives
    family: ProjectorFamily

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))


def hermitian_eigendecomposition(a):
    """Ascending eigenvalues and orthonormal eigenvectors of a Hermitian matrix or stack of them."""
    m = _as_square_complex(a, "operator", (2, 3))
    dev = max_abs(m - dagger(m))
    if not dev < HERMITIAN_TOL:
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


def spectral_projectors(a):
    """Spectral decomposition with eigenvalues merged into clusters.

    Eigenvalues within ``CLUSTER_TOL`` of each other share one
    eigenprojection; each cluster's representative is the mean of its
    members and its degeneracy the cluster multiplicity.  A ``(n, d, d)``
    stack gives the list of its matrices' decompositions, bit for bit as
    one at a time, through one Hermiticity check, one ``eigh`` and one
    family check; an error reports the stack's worst residual.
    """
    w, v = hermitian_eigendecomposition(a)
    ws, vs = (w, v) if w.ndim == 2 else (w[np.newaxis], v[np.newaxis])
    cuts = ((np.flatnonzero(gaps) + 1).tolist() for gaps in np.diff(ws) > CLUSTER_TOL)
    bounds = [list(zip([0, *c], [*c, ws.shape[1]])) for c in cuts]
    families = ProjectorFamily._from_column_stack(vs, [[hi - lo for lo, hi in b] for b in bounds])
    out = [
        SpectralDecomposition(
            # a one-member cluster's mean is its member
            eigenvalues=np.array([e[lo] if hi - lo == 1 else e[lo:hi].mean() for lo, hi in b]),
            family=family,
        )
        for e, b, family in zip(ws, bounds, families)
    ]
    return out if v.ndim == 3 else out[0]


def outcome_probabilities(rho: DensityOperator, family: ProjectorFamily) -> np.ndarray:
    """p(i) = Tr(rho P_i), clamped to [0, 1]."""
    if rho.dim != family.dim:
        raise ShapeError(f"state dim {rho.dim} != family dim {family.dim}")
    return np.clip(stack_traces(rho.matrix, family.stack), 0.0, 1.0)


@_one_at_a_time
def luders_channel(rho: DensityOperator, family: ProjectorFamily) -> DensityOperator:
    """Non-selective state change sum_i P_i rho P_i."""
    if rho.dim != family.dim:
        raise ShapeError(f"state dim {rho.dim} != family dim {family.dim}")
    out = (family.stack @ rho.matrix @ family.stack).sum(axis=0)
    return (yield DensityOperator._stack, 0.5 * (out + dagger(out)))


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
    if not bool((p_tilde > 0.0).all()):
        raise InputError("p_tilde must be strictly positive on every outcome")
    if not abs(p_tilde.sum() - 1.0) <= 1e-10:
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
        if not (bool((p >= 0.0).all()) and abs(p.sum() - 1.0) <= 1e-10):
            raise InputError("probabilities must be a distribution over first outcomes")
        dev = max_abs(p - report.probabilities)
        if not dev < 1e-10:
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
    if not dev < 1e-10:
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


@_one_at_a_time
def two_point_work_protocol(h0, h1, u: Unitary, beta: float) -> WorkProtocolResult:
    """Energy measurement, unitary drive, energy measurement.

    The initial state is the Boltzmann state of ``h0`` (so the
    repeatability assumption holds automatically) and the reference
    distribution is the Boltzmann distribution of ``h1``, which makes the
    J-equation the Jarzynski equality <exp(-beta w)> = exp(-beta dF).
    """
    if not beta > 0:
        raise InputError("beta must be positive")
    sd0 = yield spectral_projectors, _as_square_complex(h0, "operator")
    sd1 = yield spectral_projectors, _as_square_complex(h1, "operator")
    if sd0.family.dim != sd1.family.dim or u.dim != sd0.family.dim:
        raise ShapeError("h0, h1 and u must share one dimension")
    energies0 = sd0.eigenvalues
    energies1 = sd1.eigenvalues
    d0 = sd0.family.degeneracies.astype(float)
    d1 = sd1.family.degeneracies.astype(float)

    # shifted Boltzmann weights avoid overflow at large beta
    w0 = np.exp(-beta * (energies0 - energies0.min()))
    z0_shifted = float((d0 * w0).sum())
    boltzmann = ((w0 / z0_shifted)[:, None, None] * sd0.family.stack).sum(axis=0)
    rho0 = yield DensityOperator._stack, boltzmann
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


@_one_at_a_time
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
    if not norm_dev < 1e-10:
        raise InputError(f"ancilla state must be normalised (residual {norm_dev:.3e})")

    p_phi = np.outer(phi, phi.conj())
    initial = tensor_product(rho.matrix, p_phi)
    u = u_total.matrix
    eye1 = np.eye(d1)

    evolved = u @ initial @ dagger(u)
    lifted = tensor_product(eye1, ancilla_family.stack)
    selected = (lifted @ evolved @ lifted).sum(axis=0)
    sigma = yield DensityOperator._stack, partial_trace(selected, (d1, d2), keep=1)

    q_projs = dagger(u) @ lifted @ u
    rho_prime_m = (q_projs @ initial @ q_projs).sum(axis=0)
    rho_prime = yield DensityOperator._stack, 0.5 * (rho_prime_m + dagger(rho_prime_m))

    s1 = von_neumann_entropy(rho)
    s2 = von_neumann_entropy(rho_prime)
    reduced = [partial_trace(rho_prime.matrix, (d1, d2), keep=k) for k in (1, 2)]
    s31 = von_neumann_entropy((yield DensityOperator._stack, reduced[0]))
    s32 = von_neumann_entropy((yield DensityOperator._stack, reduced[1]))
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

def pairs_to_json(a) -> list:
    """A complex array as nested lists of ``[re, im]`` pairs."""
    return np.stack((a.real, a.imag), axis=-1).tolist()


def pairs_from_json(obj, ndim: int) -> np.ndarray:
    """The ``ndim``-dimensional complex array that ``obj`` holds as ``[re, im]`` pairs."""
    pairs = real_array(obj)
    if pairs is None or pairs.ndim != ndim + 1 or pairs.shape[-1] != 2:
        raise InputError(f"expected a {ndim}-d array of [re, im] pairs of numbers")
    return pairs.view(complex)[..., 0]


def matrix_to_json(a) -> dict:
    m = _as_square_complex(a, "matrix")
    return {"dim": m.shape[0], "entries": pairs_to_json(m)}


def matrix_from_json(obj: dict) -> np.ndarray:
    exact_keys(obj, ("dim", "entries"), "complex matrix document")
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
        raise InputError(f'matrix "dim" must be an integer, got {dim!r}')
    m = pairs_from_json(obj["entries"], 2)
    if m.shape != (dim, dim):
        raise ShapeError(f"entries do not form a {dim}x{dim} matrix")
    return m


def density_from_json(obj: dict) -> DensityOperator:
    return DensityOperator(matrix_from_json(obj))


def unitary_from_json(obj: dict) -> Unitary:
    return Unitary(matrix_from_json(obj))


def family_from_json(objs) -> ProjectorFamily:
    if not isinstance(objs, list):
        raise InputError("projectors must be a list of matrix documents")
    return ProjectorFamily(tuple(matrix_from_json(o) for o in objs))

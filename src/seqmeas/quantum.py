"""Finite-dimensional quantum realisation of the sequential-measurement model.

Dense complex matrices (numpy, complex128) carry all operators.  The module
provides validated wrapper types (density operators, unitaries, complete
projector families), spectral eigenprojections, the Lueders channel,
the construction of a :class:`~seqmeas.stat_model.SequentialModel` from
quantum data, the two-point work protocol, and measurement dilation.
Public constructors (and so JSON loading and unpickling) validate every
axiom; each single-comparison gate goes through ``_gate``, which passes
only when ``residual < tol``, so a NaN fails.  A public family is checked
as one ``(k, d, d)`` stack.  Families of ``eigh`` or Haar-QR columns and Haar
unitaries are unitary by construction: ``_unchecked`` builds them, and neither
they nor the models built of them are checked again.  Trial generation
validates densities a stack at a time, bit for bit as one at a time.
Functions made with ``_one_at_a_time`` yield requests for stacked kernels
(such as ``spectral_projectors`` of a stack); :func:`_build` runs a batch of them.
A ``ProjectorFamily`` is its isometry, the unitary ``vectors`` V with one-hot
``clusters`` rows C, P_i = V diag(C_i) V†.  Every kernel but dilation reads V:
with M = V† rho V and the block mask B = CᵀC, Tr(rho P_i) = C Re diag(M), the
Lueders image is V (B o M) V† and Pi(j|i) = C_2 |W†UV|² C_1ᵀ.
``dilation_analysis`` reads the ``(k, d, d)`` ``stack``, formed when first read.
A spectral decomposition is its cluster eigenvalues and the family of its
``eigh`` columns.  A DensityOperator keeps its positivity check's ``spectrum``.

Conventions:
  * tensor products are left-factor-major, i.e. ``numpy.kron``;
  * max-norm ``|A|_max = max |A_ab|`` is used for all residuals but the
    repeatability one, a Frobenius norm, which a change of basis keeps;
  * spectral clusters are ordered by ascending eigenvalue.
"""

from __future__ import annotations

import functools
import math
from dataclasses import FrozenInstanceError, dataclass
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
from .stat_model import SequentialModel, _is_integral, exact_keys, real_array

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


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-norm."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def dagger(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a.conj(), -1, -2)


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


def _unchecked(cls, **fields):
    """A ``cls`` holding ``fields``, with no check: the caller knows they hold its invariants."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


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
        return [_unchecked(cls, matrix=_frozen(m), spectrum=spectrum)
                for m, spectrum in zip(ms, cls._spectra(ms))]

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


class ProjectorFamily:
    """Complete family of mutually orthogonal projectors (a PVM), held as its isometry.

    A family holds, each set once when it is built and read-only, the unitary
    ``vectors`` V with its columns grouped by outcome, the ranks
    ``degeneracies`` and the one-hot ``(k, d)`` rows ``clusters`` C that say
    which columns each outcome holds: P_k = V diag(C_k) V†.  The public
    constructor takes the projectors, outcome ``k`` being ``projectors[k]``,
    checks them as one stack, keeps them as ``stack`` and derives V from one
    ``eigh`` of sum_k k P_k.  A family built from columns forms ``stack``, the
    one ``(k, d, d)`` copy, and ``projectors``, views into it, when first read.
    """

    def __init__(self, projectors):
        vars(self)["projectors"] = projectors  # as a dataclass holds its field for __post_init__
        self.__post_init__()

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
        levels = np.arange(len(s))[:, np.newaxis, np.newaxis]
        vectors = np.linalg.eigh((levels * s).sum(axis=0))[1]  # eigh orders the columns by outcome
        s.setflags(write=False)
        (family,) = self._from_column_stack(vectors[np.newaxis], [ranks.astype(int).tolist()])
        vars(self).update(vars(family), stack=s, projectors=tuple(s))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return _family_from_columns, (self.vectors, self.degeneracies.tolist())

    @classmethod
    def _from_column_stack(cls, vs: np.ndarray, widths) -> list:
        """Families of isometry ``vs[i]``, whose consecutive column blocks have the
        degeneracies ``widths[i]``.  The columns are orthonormal by construction, as
        ``eigh`` eigenvectors of a checked Hermitian matrix and the QR columns of finite
        Gaussian blocks are, so no axiom is checked again.  Families of one composition
        share their ranks and ``clusters``."""
        shared: dict = {}
        out = []
        for v, w in zip(vs, map(tuple, widths)):
            if w not in shared:
                ranks = np.array(w, dtype=int)
                shared[w] = {"degeneracies": ranks,
                             "clusters": np.repeat(np.eye(len(w), dtype=int), ranks, axis=1)}
                for array in shared[w].values():
                    array.setflags(write=False)
            v.setflags(write=False)
            out.append(_unchecked(cls, **shared[w], vectors=v))
        return out

    def _outer_products(self) -> np.ndarray:
        """``P_a = B_a B_a†`` of the column blocks ``B_a`` of ``vectors``, exactly Hermitian."""
        v, widths = self.vectors, self.degeneracies
        if len(widths) == len(v):  # all rank one: one batched (d, 1) @ (1, d) product
            columns = v.T[:, :, np.newaxis]
            stack = columns @ dagger(columns)
        else:
            stack = np.empty((len(widths), len(v), len(v)), dtype=complex)
            for p, stop, width in zip(stack, accumulate(widths), widths):
                block = v[:, stop - width : stop]
                np.matmul(block, dagger(block), out=p)
        return _hermitian(stack)

    @functools.cached_property
    def stack(self) -> np.ndarray:
        return _frozen(self._outer_products())

    @functools.cached_property
    def projectors(self) -> tuple:
        return tuple(self.stack)

    def __len__(self) -> int:
        return len(self.degeneracies)

    @property
    def dim(self) -> int:
        return len(self.vectors)


def _family_from_columns(vectors, degeneracies) -> ProjectorFamily:
    """The family of columns ``vectors`` grouped by the ranks ``degeneracies``, checked:
    finite square columns with V†V = I within ``PROJECTOR_TOL``, and positive integer
    ranks, never bools, that sum to d."""
    v = _as_square_complex(vectors, "family vectors")
    # JSON and ``__reduce__`` give Python ints; a bool is an int subclass and is refused
    if not (isinstance(degeneracies, list) and all(type(r) is int and r >= 1 for r in degeneracies)
            and sum(degeneracies) == len(v)):
        raise InputError(
            f"degeneracies {degeneracies!r} must be positive integers summing to dim={len(v)}"
        )
    _gate(max_abs(dagger(v) @ v - np.eye(len(v))), PROJECTOR_TOL,
          "family vectors are not orthonormal", "orthonormal")
    return ProjectorFamily._from_column_stack(v[np.newaxis], [degeneracies])[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending cluster ``eigenvalues`` and the ``family`` of their ``eigh`` columns."""

    eigenvalues: np.ndarray
    family: ProjectorFamily


def hermitian_eigendecomposition(a):
    """Ascending eigenvalues and orthonormal eigenvectors of a Hermitian matrix or stack of them."""
    m = _as_square_complex(a, "operator", (2, 3))
    dev = max_abs(m - dagger(m))
    if not dev < HERMITIAN_TOL:
        raise InputError(f"operator is not Hermitian (residual {dev:.3e})")
    return np.linalg.eigh(m)


def spectral_projectors(a):
    """Spectral decomposition with eigenvalues merged into clusters.

    Eigenvalues within ``CLUSTER_TOL`` of each other share one
    eigenprojection; each cluster's representative is the mean of its
    members and its degeneracy the cluster multiplicity.  A ``(n, d, d)``
    stack gives the list of its matrices' decompositions, bit for bit as
    one at a time, through one Hermiticity check and one ``eigh``; an error
    reports the stack's worst residual.
    """
    w, v = hermitian_eigendecomposition(a)
    _, sizes, means, ks = _clusters(w.reshape(-1, w.shape[-1]))
    widths = [s[:k].astype(int).tolist() for s, k in zip(sizes, ks)]
    families = ProjectorFamily._from_column_stack(v.reshape(-1, *v.shape[-2:]), widths)
    out = [SpectralDecomposition(e[:k], family) for e, k, family in zip(means, ks, families)]
    return out if v.ndim == 3 else out[0]


def _clusters(w: np.ndarray) -> tuple:
    """One-hot rows, sizes, means (``.sum()`` over size) and count of the clusters of ascending
    spectra ``w`` (..., d), zero-padded to d: a gap above ``CLUSTER_TOL`` starts a cluster."""
    labels = np.cumsum(np.diff(w, prepend=w[..., :1]) > CLUSTER_TOL, axis=-1)  # cluster of each
    clusters = (labels[..., np.newaxis, :] == np.arange(w.shape[-1])[:, np.newaxis]).astype(float)
    sizes = clusters.sum(axis=-1)
    means = np.zeros(w.shape)
    means[sizes > 0] = _segment_sums(w.ravel(), sizes[sizes > 0].astype(int)) / sizes[sizes > 0]
    return clusters, sizes, means, labels[..., -1] + 1


def _segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The sum of each run of ``counts`` consecutive ``values``, bit for bit as the run's own
    ``.sum()`` (0 if empty): the runs of one length are summed as the rows of one array."""
    lengths = set(counts.tolist())
    if len(lengths) == 1 and 0 not in lengths:  # one length: the runs are the rows
        return values.reshape(len(counts), -1).sum(axis=-1)
    sums, starts = np.zeros(len(counts)), np.cumsum(counts) - counts
    for count in lengths - {0}:
        sums[counts == count] = values[starts[counts == count, None] + np.arange(count)].sum(-1)
    return sums


def _hermitian(a: np.ndarray) -> np.ndarray:
    """``0.5 (a + a†)``, exactly Hermitian."""
    return 0.5 * (a + dagger(a))


def _weighted(v: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``V diag(weights) V†``, exactly Hermitian."""
    return _hermitian((v * weights) @ dagger(v))


def _block_mask(family: ProjectorFamily) -> np.ndarray:
    """B = CᵀC, the ``(d, d)`` mask of the pairs of columns that share an outcome."""
    labels = np.repeat(np.arange(len(family)), family.degeneracies)
    return labels[:, np.newaxis] == labels


def _compressed(rho: DensityOperator, family: ProjectorFamily) -> np.ndarray:
    """M = V† rho V, rho in the family's columns."""
    if rho.dim != family.dim:
        raise ShapeError(f"state dim {rho.dim} != family dim {family.dim}")
    return dagger(family.vectors) @ rho.matrix @ family.vectors


def outcome_probabilities(rho: DensityOperator, family: ProjectorFamily) -> np.ndarray:
    """p(i) = Tr(rho P_i) = C Re diag(V† rho V), clamped to [0, 1]."""
    return np.clip(family.clusters @ np.diagonal(_compressed(rho, family)).real, 0.0, 1.0)


@_one_at_a_time
def luders_channel(rho: DensityOperator, family: ProjectorFamily) -> DensityOperator:
    """Non-selective state change sum_i P_i rho P_i = V (B o V† rho V) V†."""
    v = family.vectors
    image = v @ (_compressed(rho, family) * _block_mask(family)) @ dagger(v)
    return (yield DensityOperator._stack, _hermitian(image))


@dataclass(frozen=True)
class AssumptionReport:
    """Per-outcome residuals of the repeatability assumption.

    ``weighted_residuals[i]`` is the Frobenius norm of the block
    P_i rho P_i - p(i) P_i/d(i), |M_ii - (p(i)/d(i)) I|_F for M = V† rho V,
    which does not depend on the basis and stays well conditioned as
    p(i) -> 0; ``weighted_holds`` says whether all lie below ``REPEATABILITY_TOL``.
    """

    weighted_residuals: tuple
    weighted_holds: bool
    probabilities: np.ndarray


def _repeatability(rho0: DensityOperator, family: ProjectorFamily) -> tuple:
    """The report of ``assumption_holds`` and the block-diagonal part B o M of M = V† rho0 V."""
    block = _compressed(rho0, family) * _block_mask(family)
    probs = np.clip(family.clusters @ np.diagonal(block).real, 0.0, 1.0)
    deviation = block - np.diag(np.repeat(probs / family.degeneracies, family.degeneracies))
    weighted = np.sqrt(family.clusters @ (np.abs(deviation) ** 2).sum(axis=1))
    report = AssumptionReport(weighted_residuals=tuple(weighted.tolist()),
                              weighted_holds=bool(weighted.max() < REPEATABILITY_TOL),
                              probabilities=probs)
    return report, block


def assumption_holds(rho0: DensityOperator, family: ProjectorFamily) -> AssumptionReport:
    """Check that selection leaves the maximally mixed state on each eigenspace."""
    return _repeatability(rho0, family)[0]


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
    report, block = _repeatability(rho0, first_family)
    if not report.weighted_holds:
        worst = max(report.weighted_residuals)
        raise AssumptionError(
            f"repeatability assumption fails (worst weighted residual {worst:.3e})", report
        )

    c1, c2 = first_family.clusters, second_family.clusters
    m = dagger(second_family.vectors) @ u.matrix @ first_family.vectors  # M = W† U V
    pi = c2 @ np.abs(m) ** 2 @ c1.T

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

    # cross-check: the induced joint distribution must match the Born rule,
    # Tr(Q_j U P_i rho0 P_i U†) = C_2 Re(conj(M) (M B)) C_1ᵀ with B the
    # block-diagonal part of V† rho0 V
    direct = c2 @ (m.conj() * (m @ block)).real @ c1.T
    dev = max_abs(pi * x[np.newaxis, :] - direct)
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
    d0 = sd0.family.degeneracies
    d1 = sd1.family.degeneracies

    # shifted Boltzmann weights avoid overflow at large beta
    w0 = np.exp(-beta * (energies0 - energies0.min()))
    z0_shifted = float((d0 * w0).sum())
    boltzmann = _weighted(sd0.family.vectors, np.repeat(w0 / z0_shifted, d0))
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
    # exp(-beta dF) = (z1/z0) exp(-beta (F_min - E_min)): the exponent is near zero for
    # spectra anchored at one ground energy, so it does not round at the size of beta E_min
    ratio = z1_shifted / z0_shifted
    shift = float(energies1.min() - energies0.min())
    return WorkProtocolResult(
        work=work,
        probability=probability,
        lhs=lhs,
        rhs=ratio * math.exp(-beta * shift),
        delta_f=shift - math.log(ratio) / beta,
        model=model,
        energies_first=energies0,
        energies_second=energies1,
    )


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product, left factor major: (A o B)[(a1,b1),(a2,b2)] = A[a1,a2] B[b1,b2]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(rho, dims: tuple, keep: int) -> np.ndarray:
    """Partial trace of an operator on a bipartite space.

    ``dims = (d1, d2)``, two positive integers, are the factor dimensions
    under the :func:`tensor_product` convention; ``keep`` selects the
    surviving factor, the integer 1 or 2.
    """
    m = _as_square_complex(rho, "operator")
    if not (isinstance(dims, (tuple, list)) and len(dims) == 2
            and all(_is_integral(n) and n >= 1 for n in dims)):
        raise InputError(f"dims {dims!r} must be two positive integers")
    d1, d2 = dims
    if d1 * d2 != m.shape[0]:
        raise ShapeError(f"cannot split dimension {m.shape[0]} as {d1}x{d2}")
    if not (_is_integral(keep) and keep in (1, 2)):
        raise InputError("keep must be 1 or 2")
    t = m.reshape(d1, d2, d1, d2)
    return np.trace(t, axis1=1, axis2=3) if keep == 1 else np.trace(t, axis1=0, axis2=2)


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
    rho_prime = yield DensityOperator._stack, _hermitian(rho_prime_m)

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
    if not _is_integral(dim):
        raise InputError(f'matrix "dim" must be an integer, got {dim!r}')
    m = pairs_from_json(obj["entries"], 2)
    if m.shape != (dim, dim):
        raise ShapeError(f"entries do not form a {dim}x{dim} matrix")
    return m


def density_from_json(obj: dict) -> DensityOperator:
    return DensityOperator(matrix_from_json(obj))


def unitary_from_json(obj: dict) -> Unitary:
    return Unitary(matrix_from_json(obj))


def family_to_json(family: ProjectorFamily) -> dict:
    """A family as its exact columns and ranks."""
    return {"vectors": matrix_to_json(family.vectors), "degeneracies": family.degeneracies.tolist()}


def family_from_json(obj: dict) -> ProjectorFamily:
    exact_keys(obj, ("vectors", "degeneracies"), "family document")
    return _family_from_columns(matrix_from_json(obj["vectors"]), obj["degeneracies"])

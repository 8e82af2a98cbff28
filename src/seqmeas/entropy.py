"""Entropy functionals and theorem checkers for density-operator pairs.

Von Neumann entropy, relative entropy through the spectral double sum,
Klein's inequality, minimal pairs and their entropy identity, and the
explicit non-minimal counterexample on C^2 o C^2.  All entropies are in
nats; +infinity is signalled by ``math.inf`` and every consumer branches on
it explicitly.  One stacked kernel, :func:`_pair_entropies`, evaluates the
pairwise quantities of a ``(n, 2, d, d)`` stack of pairs (rho, sigma); the public
functions are its n = 1 case, and the suite's checks request it as a step, so one
call answers every trial of one d.  No projector is formed: for eigenbases V, W and
one-hot cluster rows C, Tr(P_a Q_b) = C_V |V†W|^2 C_W^T, Tr(rho Q_j) = C_W diag(W† rho W).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .quantum import (
    CLUSTER_TOL,
    DensityOperator,
    _one_at_a_time,
    dagger,
    hermitian_eigendecomposition,
    partial_trace,
    spectral_projectors,  # noqa: F401  (kept in this namespace for callers that read it here)
    tensor_product,
)

#: spectral weight below this does not count as support
SUPPORT_EPS = 1e-12
#: overlap with a zero-weight eigenspace above this triggers divergence
OVERLAP_EPS = 1e-10
#: tolerance of the minimality verdict
VERDICT_TOL = 1e-10


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-Tr(rho log rho) with 0 log 0 = 0; never negative."""
    eigs = rho.spectrum
    pos = eigs[eigs > 0.0]
    s = float(-(pos * np.log(pos)).sum())
    return s if s > 0.0 else 0.0


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


def _pair_entropies(pairs: np.ndarray, self_rels, minimalities) -> list:
    """Kernel: ``(S(rho||sigma), S(rho||rho), near_boundary, minimality)`` of each pair of a
    ``(n, 2, d, d)`` stack of (rho, sigma), bit for bit as one pair at a time; a pair whose
    ``self_rels`` or ``minimalities`` flag is off reads None for S(rho||rho) or minimality.

    One Hermiticity check and one ``eigh`` decompose the 2n operators.  Eigenvalues within
    ``CLUSTER_TOL`` share a cluster, which takes their mean; the one-hot cluster rows are
    padded with zero rows to d.  ``near_boundary`` says whether a sigma eigenvalue within a
    decade above ``SUPPORT_EPS`` overlaps rho's support.  Each sum runs over its pair's
    supported entries alone, in cluster order, so padding never reorders it.
    """
    n, _, d, _ = pairs.shape
    w, v = hermitian_eigendecomposition(pairs.reshape(2 * n, d, d))
    labels = np.cumsum(np.diff(w, prepend=w[:, :1]) > CLUSTER_TOL, axis=-1)  # cluster of each
    clusters = (labels[:, np.newaxis, :] == np.arange(d)[:, np.newaxis]).astype(float)
    sizes = clusters.sum(axis=-1)  # the degeneracies; 0 on a padding row
    eigs = np.zeros((2 * n, d))
    eigs[sizes > 0] = _segment_sums(w.ravel(), sizes[sizes > 0].astype(int)) / sizes[sizes > 0]
    eigs, sizes, clusters, v = (x.reshape(n, 2, *x.shape[1:]) for x in (eigs, sizes, clusters, v))
    r, s = eigs[:, 0], eigs[:, 1]
    r_supported, s_supported = r > SUPPORT_EPS, s > SUPPORT_EPS
    log_r, log_s = np.log(np.where(r_supported, r, 1.0)), np.log(np.where(s_supported, s, 1.0))
    tr_rho_log_rho = _segment_sums((r * log_r * sizes[:, 0])[r_supported], r_supported.sum(-1))

    def relative(x: int, log_x: np.ndarray, x_supported: np.ndarray):
        """S(rho||x) for operator x of each pair, and where rho's support overlaps x's clusters."""
        c_x = np.swapaxes(clusters[:, x], 1, 2)
        overlaps = clusters[:, 0] @ np.abs(dagger(v[:, 0]) @ v[:, x]) ** 2 @ c_x  # Tr(P_a Q_b)
        rows = (overlaps > OVERLAP_EPS) & r_supported[..., np.newaxis]
        mask = r_supported[..., np.newaxis] & x_supported[:, np.newaxis, :]
        terms = r[..., np.newaxis] * log_x[:, np.newaxis, :] * overlaps
        rel = tr_rho_log_rho - _segment_sums(terms[mask], mask.sum(axis=(1, 2)))
        diverges = (rows & ~x_supported[:, np.newaxis, :]).any(axis=(1, 2))
        return np.where(diverges, math.inf, rel).tolist(), rows

    rel, rows = relative(1, log_s, s_supported)
    near = (rows & (s_supported & (s <= 10.0 * SUPPORT_EPS))[:, np.newaxis, :]).any(axis=(1, 2))
    self_rel = relative(0, log_r, r_supported)[0] if any(self_rels) else [None] * n
    minimality = [None] * n
    if any(minimalities):
        # q_j = Tr(rho Q_j) and p_tilde_j = Tr(sigma Q_j), the cluster sums of diag(W† x W)
        m = np.diagonal(dagger(v[:, 1:]) @ pairs @ v[:, 1:], axis1=-2, axis2=-1).real
        q, p_tilde = np.moveaxis(np.clip(m @ np.swapaxes(clusters[:, 1], 1, 2), 0.0, None), 1, 0)
        residuals = np.abs(p_tilde - q)
        minimal, k = (residuals < VERDICT_TOL).all(-1).tolist(), (labels[1::2, -1] + 1).tolist()
        minimality = [MinimalityResult(ok, e[:j], g[:j], x[:j], y[:j], z[:j])
                      for ok, j, e, g, x, y, z
                      in zip(minimal, k, s, sizes[:, 1].astype(int), q, p_tilde, residuals)]
    return [(a, b if want_b else None, c, e if want_e else None) for a, b, c, e, want_b, want_e
            in zip(rel, self_rel, near.tolist(), minimality, self_rels, minimalities)]


def _compared(rho: DensityOperator, sigma: DensityOperator, self_rel=False, minimality=False):
    """Steps: the :func:`_pair_entropies` entry of the pair (rho, sigma)."""
    if rho.dim != sigma.dim:
        raise ShapeError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    return (yield _pair_entropies, np.stack((rho.matrix, sigma.matrix)), self_rel, minimality)


@_one_at_a_time
def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """S(rho||sigma) = Tr(rho log rho) - Tr(rho log sigma); may be math.inf.

    Computed from the spectral clusters of both operators; the result is
    +infinity when rho has weight on an eigenspace where sigma vanishes.
    """
    return (yield from _compared(rho, sigma))[0]


def _klein(value: float) -> float:
    """Klein's residual of a relative entropy: how far it falls below 0; 0 when it is infinite."""
    return 0.0 if math.isinf(value) else max(-value, 0.0)


@dataclass(frozen=True)
class MinimalityResult:
    """Per-cluster comparison of Tr(sigma Q_j) against Tr(rho Q_j).

    Clusters are the eigenprojections of sigma in ascending eigenvalue
    order, with their ``degeneracies``; ``p_tilde`` are sigma's own
    weights, ``q`` the weights induced by rho.
    """

    is_minimal: bool
    eigenvalues: np.ndarray
    degeneracies: np.ndarray
    q: np.ndarray
    p_tilde: np.ndarray
    residuals: np.ndarray


@_one_at_a_time
def is_minimal_pair(rho: DensityOperator, sigma: DensityOperator) -> MinimalityResult:
    """Test Tr(sigma Q_j) = Tr(rho Q_j) on every eigenprojection of sigma."""
    return (yield from _compared(rho, sigma, minimality=True))[3]


def minimal_identity_check(rho: DensityOperator, sigma: DensityOperator) -> float | None:
    """|S(rho||sigma) - (S(sigma) - S(rho))|, or None when the left side diverges.

    Below 1e-9 for every minimal pair; the counterexample shows the
    converse fails.
    """
    return entropy_report(rho, sigma).residuals.get("minimal_identity")


def counterexample_pair() -> tuple[DensityOperator, DensityOperator]:
    """The non-minimal pair satisfying the minimal-pair entropy identity.

    rho projects onto (up down + sqrt(3) down up)/2 in C^2 o C^2 and sigma
    is the product of rho's partial traces, diag(3, 1, 9, 3)/16.
    """
    phi = np.array([0.0, 0.5, math.sqrt(3.0) / 2.0, 0.0], dtype=complex)
    rho_m = np.outer(phi, phi.conj())
    rho1 = partial_trace(rho_m, (2, 2), keep=1)
    rho2 = partial_trace(rho_m, (2, 2), keep=2)
    sigma_m = tensor_product(rho1, rho2)
    return DensityOperator(rho_m), DensityOperator(sigma_m)


@dataclass(frozen=True)
class EntropyReport:
    """Machine-readable record of an entropy comparison run."""

    s_rho: float
    s_sigma: float
    rel_entropy: float  # math.inf marks divergence
    gap: float
    minimality: MinimalityResult
    residuals: dict

    @property
    def is_minimal(self) -> bool:
        return self.minimality.is_minimal

    def to_json(self) -> dict:
        return {
            "s_rho": self.s_rho,
            "s_sigma": self.s_sigma,
            "rel_entropy": "inf" if math.isinf(self.rel_entropy) else self.rel_entropy,
            "gap": self.gap,
            "is_minimal": self.is_minimal,
            "residuals": dict(self.residuals),
        }


@_one_at_a_time
def entropy_report(rho: DensityOperator, sigma: DensityOperator) -> EntropyReport:
    """Run every pairwise entropy check, decomposing each operator once."""
    rel, _, near_boundary, minimality = yield from _compared(rho, sigma, minimality=True)
    s_rho = von_neumann_entropy(rho)
    s_sigma = von_neumann_entropy(sigma)
    residuals = {
        "klein": _klein(rel),
        "max_minimality_deviation": float(minimality.residuals.max()),
    }
    if not math.isinf(rel):
        residuals["minimal_identity"] = abs(rel - (s_sigma - s_rho))
    if near_boundary:
        residuals["near_support_boundary"] = 1.0
    return EntropyReport(s_rho=s_rho, s_sigma=s_sigma, rel_entropy=rel, gap=s_sigma - s_rho,
                         minimality=minimality, residuals=residuals)

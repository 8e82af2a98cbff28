"""Entropy functionals and theorem checkers for density-operator pairs.

Von Neumann entropy, relative entropy through the spectral double sum,
Klein's inequality, minimal pairs and their entropy identity, and the
explicit non-minimal counterexample on C^2 o C^2.  All entropies are in
nats; +infinity is signalled by ``math.inf`` and every consumer branches on
it explicitly.  No projector is formed: for eigenbases V, W and one-hot
cluster rows C, Tr(P_a Q_b) = C_V |V†W|^2 C_W^T, Tr(rho Q_j) = C_W diag(W† rho W).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .quantum import (
    DensityOperator,
    SpectralDecomposition,
    _one_at_a_time,
    dagger,
    partial_trace,
    spectral_projectors,
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


def _decompose(rho: DensityOperator, sigma: DensityOperator):
    """Steps: the spectral decompositions of rho and sigma; a shared operator is decomposed once."""
    if rho.dim != sigma.dim:
        raise ShapeError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    sd_r = yield spectral_projectors, rho.matrix
    sd_s = sd_r if sigma is rho else (yield spectral_projectors, sigma.matrix)
    return sd_r, sd_s


def _overlaps(first: SpectralDecomposition, second: SpectralDecomposition) -> np.ndarray:
    """``Tr(P_a Q_b)`` of the two decompositions' clusters: ``C_a |V†W|² C_bᵀ``."""
    a, b = first.family, second.family
    return a.clusters @ np.abs(dagger(a.vectors) @ b.vectors) ** 2 @ b.clusters.T


def _relative_entropy_parts(
    sd_r: SpectralDecomposition, sd_s: SpectralDecomposition
) -> tuple[float, bool]:
    """Relative entropy via the cluster double sum, plus a boundary flag.

    The flag reports whether some sigma eigenvalue sits within a decade of
    the support threshold while overlapping the support of rho, i.e. the
    finite/infinite decision was made close to the cutoff.
    """
    r = sd_r.eigenvalues
    s = sd_s.eigenvalues

    overlaps = _overlaps(sd_r, sd_s)

    r_supported = r > SUPPORT_EPS
    s_zero = s <= SUPPORT_EPS
    s_near = (s > SUPPORT_EPS) & (s <= 10.0 * SUPPORT_EPS)
    rows = overlaps[r_supported]
    diverges = bool((rows[:, s_zero] > OVERLAP_EPS).any())
    near_boundary = bool((rows[:, s_near] > OVERLAP_EPS).any())
    if diverges:
        return math.inf, near_boundary

    rs = r[r_supported]
    tr_rho_log_rho = float((rs * np.log(rs) * sd_r.family.degeneracies[r_supported]).sum())
    s_supported = ~s_zero
    block = rows[:, s_supported]
    tr_rho_log_sigma = float(
        (rs[:, np.newaxis] * np.log(s[s_supported])[np.newaxis, :] * block).sum()
    )
    return tr_rho_log_rho - tr_rho_log_sigma, near_boundary


@_one_at_a_time
def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """S(rho||sigma) = Tr(rho log rho) - Tr(rho log sigma); may be math.inf.

    Computed from the spectral clusters of both operators; the result is
    +infinity when rho has weight on an eigenspace where sigma vanishes.
    """
    value, _ = _relative_entropy_parts(*(yield from _decompose(rho, sigma)))
    return value


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


def _minimality(
    rho: DensityOperator, sigma: DensityOperator, sd_s: SpectralDecomposition
) -> MinimalityResult:
    w, clusters = sd_s.family.vectors, sd_s.family.clusters
    m = dagger(w) @ np.stack((rho.matrix, sigma.matrix)) @ w  # W† rho W and W† sigma W
    q, p_tilde = np.clip(np.diagonal(m, axis1=1, axis2=2).real @ clusters.T, 0.0, None)
    residuals = np.abs(p_tilde - q)
    return MinimalityResult(
        is_minimal=bool((residuals < VERDICT_TOL).all()),
        eigenvalues=sd_s.eigenvalues,
        degeneracies=sd_s.family.degeneracies,
        q=q,
        p_tilde=p_tilde,
        residuals=residuals,
    )


def is_minimal_pair(rho: DensityOperator, sigma: DensityOperator) -> MinimalityResult:
    """Test Tr(sigma Q_j) = Tr(rho Q_j) on every eigenprojection of sigma."""
    if rho.dim != sigma.dim:
        raise ShapeError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    return _minimality(rho, sigma, spectral_projectors(sigma.matrix))


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
    s_rho = von_neumann_entropy(rho)
    s_sigma = von_neumann_entropy(sigma)
    sd_r, sd_s = yield from _decompose(rho, sigma)
    rel, near_boundary = _relative_entropy_parts(sd_r, sd_s)
    minimality = _minimality(rho, sigma, sd_s)
    residuals = {
        "klein": _klein(rel),
        "max_minimality_deviation": float(minimality.residuals.max()),
    }
    if not math.isinf(rel):
        residuals["minimal_identity"] = abs(rel - (s_sigma - s_rho))
    if near_boundary:
        residuals["near_support_boundary"] = 1.0
    return EntropyReport(
        s_rho=s_rho,
        s_sigma=s_sigma,
        rel_entropy=rel,
        gap=s_sigma - s_rho,
        minimality=minimality,
        residuals=residuals,
    )

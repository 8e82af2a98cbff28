"""Kernel micro-benchmarks, each as a ratio to one bare LAPACK ``eigh``.

Every kernel runs on seeded inputs at d = 2, 8, 16, 32 and 64: full-rank
random density operators and rank-one (d-outcome) projector families, the
costliest family a dimension allows.  ``partial_trace`` splits its
d-dimensional operator as (2, d/2).  A kernel's figure is the median time
per call divided by the median time of ``numpy.linalg.eigh`` on a
d-dimensional Hermitian matrix in the same process.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from seqmeas import entropy as ent
from seqmeas import harness as hn
from seqmeas import quantum as qm

DIMS = (2, 8, 16, 32, 64)
KERNELS = (
    "spectral_projectors",
    "ProjectorFamily",
    "relative_entropy",
    "von_neumann_entropy",
    "luders_channel",
    "build_sequential_model",
    "partial_trace",
)

#: a timed sample lasts at least this long, so the clock's resolution does not show
_MIN_SAMPLE_S = 1e-3
#: rough time spent per (kernel, dimension) beyond the first calls; the eigh
#: baseline divides every ratio at its dimension, so it gets four times as much
_BUDGET_S = 0.05
_EIGH_BUDGET_S = 0.2
_MIN_SAMPLES = 5
_MAX_SAMPLES = 31


def _calls(d: int, seed: int) -> dict:
    """Name -> zero-argument call of each kernel on its seeded inputs."""
    rng = np.random.default_rng([seed, d])
    rho = hn.random_density(d, rng=rng)
    sigma = hn.random_density(d, rng=rng)
    family = hn.random_pvm(d, [1] * d, rng)
    second = hn.random_pvm(d, [1] * d, rng)
    # a mixture of the first family's projectors satisfies repeatability
    rho0 = qm.DensityOperator(sum(w * p for w, p in zip(rng.dirichlet(np.ones(d)), family.projectors)))
    u = hn.random_unitary(d, rng)
    p_tilde = rng.dirichlet(np.ones(d))
    return {
        "eigh": lambda: np.linalg.eigh(rho.matrix),
        "spectral_projectors": lambda: qm.spectral_projectors(rho.matrix),
        "ProjectorFamily": lambda: qm.ProjectorFamily(family.projectors),
        "relative_entropy": lambda: ent.relative_entropy(rho, sigma),
        "von_neumann_entropy": lambda: ent.von_neumann_entropy(rho),
        "luders_channel": lambda: qm.luders_channel(rho, family),
        "build_sequential_model": lambda: qm.build_sequential_model(rho0, family, u, second, p_tilde),
        "partial_trace": lambda: qm.partial_trace(rho.matrix, (2, d // 2), keep=1),
    }


def median_call_s(call, budget_s: float = _BUDGET_S) -> float:
    """Median seconds per call over a few samples of repeated calls."""
    call()  # first-call effects stay out of the samples
    started = time.perf_counter()
    call()
    once = max(time.perf_counter() - started, 1e-9)
    inner = max(1, int(_MIN_SAMPLE_S / once))
    samples = min(_MAX_SAMPLES, max(_MIN_SAMPLES, int(budget_s / (once * inner))))
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        for _ in range(inner):
            call()
        times.append((time.perf_counter() - started) / inner)
    return statistics.median(times)


def run(seed: int) -> dict:
    """``kernel.eigh.d<d>.us`` and ``kernel.<k>.d<d>.x_eigh`` for every kernel and d."""
    metrics = {}
    for d in DIMS:
        calls = _calls(d, seed)
        eigh_s = median_call_s(calls["eigh"], _EIGH_BUDGET_S)
        metrics[f"kernel.eigh.d{d}.us"] = eigh_s * 1e6
        for name in KERNELS:
            metrics[f"kernel.{name}.d{d}.x_eigh"] = median_call_s(calls[name]) / eigh_s
    return metrics

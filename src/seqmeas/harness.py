"""Random instance generation and the reproducible verification suite.

Every check draws its per-trial random generator deterministically from
``(config.seed, check name, trial index)``, so identical configurations
produce identical reports (wall-clock durations aside) and trials are
independent streams safe to evaluate in parallel.

Trial counts: ``jcheck``, ``chain``, ``klein``, ``luders`` and ``minimal``
run ``config.trials`` trials; ``jarzynski`` and ``dilation`` run 30% of
that (their acceptance budgets are 300 against 1000); ``counterexample``
is a single fixed instance.  ``chain`` evaluates the very models of
``jcheck``: its ``rng_alias`` names the trial stream of ``jcheck``.

A check's ``draw`` is a generator function of steps: it draws from its
trial's own stream and yields requests for stacked kernels, which draw
nothing.  :func:`_build` answers a batch of draws' requests a stack per
kernel and array shape, bit for bit as one at a time, so how trials are
batched never changes a report.  Evaluation runs stacked too, bit for bit
as one operator at a time: every ``evaluate`` and ``fixed`` is made with
``_one_at_a_time``, and the suite runs their steps through :func:`_build`.

Dispatch: checks that share a trial stream form a group.  ``_run_group``
splits a group's trials into contiguous chunks, four per worker and of a
size bounded by the dimension so that a chunk's memory stays bounded, and
runs ``_trial_records`` on each, in this process or in worker processes;
:func:`run_check` is a one-check group in process.  ``_trial_records``
draws and builds each trial of its chunk once, as one batch, evaluates the
batch per check and makes one record per check and trial with
``_trial_record`` (residuals, counters, failure bundle or None).
``_outcome`` adds a check's fixed instance as trial -1 and folds its records.
:func:`run_suite` starts ``min(CPUs, checks)`` workers, forked from a
preloaded server and with BLAS pinned to one thread, unless only one CPU is
available or it already runs inside a worker.  The fold is the same on both
paths, so the report is the same bit for bit.  A group's wall time is split
between its checks by their time in the loop, generation counted for the first.

A trial that misses a gate leaves a failure bundle.  One table, ``_CODECS``,
gives each trial input (named by a parameter of a check's ``evaluate``) its
bundle key and JSON form; :func:`replay_failure` reads exactly those keys
back and re-runs its trial; a trial -1 bundle re-runs ``spec.fixed``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import entropy as ent
from . import quantum as qm
from . import stat_model as sm
from .errors import ConfigError, InputError, SeqMeasError
from .quantum import _alone, _build, _one_at_a_time

CHECK_ORDER = (
    "jcheck",
    "chain",
    "klein",
    "luders",
    "minimal",
    "jarzynski",
    "dilation",
    "counterexample",
)
_CHECK_IDS = {name: k for k, name in enumerate(CHECK_ORDER)}

#: seed used by the canonical acceptance configuration
ACCEPTANCE_SEED = 5137

#: the counterexample's S(sigma) in nats, -sum l log l over (1, 3, 3, 9)/16 correctly rounded
COUNTEREXAMPLE_S_SIGMA = 1.1246702892376168

#: 0/1 verdicts gated at 0.5; the global ``tol`` override leaves them alone
_VERDICT_KEYS = frozenset({"non_minimal_trials", "minimality_verdict"})


# ---------------------------------------------------------------------------
# configuration and report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Reproducible description of a verification run.

    ``tol = None`` keeps each check's pinned tolerance set; a number
    overrides the per-residual thresholds of every requested check.  The
    0/1 verdict gates (``non_minimal_trials``, ``minimality_verdict``) stay
    at 0.5 either way.
    """

    seed: int = ACCEPTANCE_SEED
    dims: tuple = (2, 3, 4, 5, 6, 7, 8)
    trials: int = 1000
    tol: float | None = None
    beta_values: tuple = (0.1, 1.0, 10.0)
    check_set: tuple = CHECK_ORDER

    def __post_init__(self):
        for key in ("dims", "beta_values", "check_set"):
            if not isinstance(getattr(self, key), (list, tuple, np.ndarray)):
                raise ConfigError(f"{key} must be a list")
        if not len(self.dims) or not all(_is_whole(d) and 1 <= d <= 64 for d in self.dims):
            raise ConfigError("dims must be a non-empty list of integers in [1, 64]")
        if not len(self.beta_values) or not _positive_finite(self.beta_values, 1):
            raise ConfigError("beta_values must be positive and finite")
        if not sm._is_integral(self.seed) or not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if not sm._is_integral(self.trials) or self.trials < 1:
            raise ConfigError("trials must be a positive integer")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "beta_values", tuple(float(b) for b in self.beta_values))
        object.__setattr__(self, "check_set", tuple(str(c) for c in self.check_set))
        # an inf gate would pass the inf markers of undefined identities
        if self.tol is not None and not _positive_finite(self.tol, 0):
            raise ConfigError("tol must be positive and finite when given")
        unknown = set(self.check_set) - set(CHECK_ORDER)
        if unknown:
            raise ConfigError(f"unknown checks: {sorted(unknown)}")
        if not self.check_set:
            raise ConfigError("check_set must not be empty")

    def to_json(self) -> dict:
        doc = asdict(self)
        return {key: list(v) if isinstance(v, tuple) else v for key, v in doc.items()}

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config document must be a JSON object")
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**obj)


def _is_whole(value) -> bool:
    """An integer or an integral float; never a bool, nor 2.7, which int() would truncate."""
    return sm._is_integral(value) or isinstance(value, float) and value.is_integer()


def _positive_finite(values, ndim: int) -> bool:
    arr = sm.real_array(values)  # None for a bool, a string or an integer beyond the float range
    return arr is not None and arr.ndim == ndim and bool(((0 < arr) & (arr < math.inf)).all())


def acceptance_config() -> ExperimentConfig:
    """The canonical configuration behind the acceptance criteria."""
    return ExperimentConfig()


@dataclass
class CheckOutcome:
    name: str
    trials: int
    residual_maxima: dict
    tolerances: dict
    counters: dict
    failures: list
    duration_seconds: float
    passed: bool

    @property
    def max_residual(self) -> float:
        values = self.residual_maxima.values()
        return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "max_residual": _json_float(self.max_residual),
            "residual_maxima": {k: _json_float(v) for k, v in self.residual_maxima.items()},
            "tolerances": {k: _json_float(v) for k, v in self.tolerances.items()},
            "counters": dict(self.counters),
            "failures": self.failures,
            "duration_seconds": self.duration_seconds,
            "passed": self.passed,
        }


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    checks: list
    duration_seconds: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "checks": [c.to_json() for c in self.checks],
            "duration_seconds": self.duration_seconds,
            "passed": self.passed,
        }

    def fingerprint(self) -> str:
        """Canonical JSON with wall-clock durations stripped."""
        doc = self.to_json()
        doc.pop("duration_seconds", None)
        for check in doc["checks"]:
            check.pop("duration_seconds", None)
        return json.dumps(doc, sort_keys=True)


def _json_float(v: float):
    if isinstance(v, float) and not math.isfinite(v):
        return "inf" if v > 0 else ("-inf" if v < 0 else "nan")
    return float(v)


# ---------------------------------------------------------------------------
# random instance generators: a draw per trial, a build per array shape
# ---------------------------------------------------------------------------

def random_density(
    dim: int, rank: int | None = None, *, rng: np.random.Generator
) -> qm.DensityOperator:
    """Normalised G G* for a dim x rank standard complex Gaussian G."""
    if rank is None:
        rank = dim
    if not 1 <= rank <= dim:
        raise InputError(f"rank must lie in [1, {dim}], got {rank}")
    return qm.DensityOperator._stack(_gram(_gaussian(rng, dim, rank)[np.newaxis]))[0]


def _gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    real = rng.standard_normal((rows, cols))
    return (real + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2)


def _haar(gs: np.ndarray) -> np.ndarray:
    """Haar unitaries of square Gaussian blocks: QR with the positive-diagonal phase fix."""
    q, r = np.linalg.qr(gs)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., np.newaxis, :]


def _gram(gs: np.ndarray) -> np.ndarray:
    """``G G†/Tr(G G†)`` of each Gaussian block of a stack."""
    ms = gs @ qm.dagger(gs)
    return ms / np.trace(ms, axis1=1, axis2=2).real[:, np.newaxis, np.newaxis]


def _density(g):
    """Build step: the density operator of a Gaussian block, checked with all others of its d."""
    return (yield qm.DensityOperator._stack, (yield _gram, g))


def _pvms(gs: np.ndarray, ranks) -> list:
    """Families of the Haar columns of a stack of Gaussian blocks, of widths ``ranks[i]``."""
    return qm.ProjectorFamily._from_column_stack(_haar(gs), ranks)


def random_unitary(dim: int, rng: np.random.Generator) -> qm.Unitary:
    """Haar-distributed unitary."""
    if dim < 1:
        raise InputError("dim must be positive")
    return qm.Unitary(_haar(_gaussian(rng, dim, dim)))


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    if dim < 1:
        raise InputError("dim must be positive")
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_pvm(dim: int, ranks, rng: np.random.Generator) -> qm.ProjectorFamily:
    """Random complete family whose degeneracies are ``ranks``, positive integers summing to dim."""
    if dim < 1:
        raise InputError("dim must be positive")
    if not all(_is_whole(r) and r >= 1 for r in ranks) or sum(ranks) != dim:
        raise InputError(f"ranks {ranks} must be positive integers summing to dim={dim}")
    ranks = [int(r) for r in ranks]
    # Haar-QR columns are orthonormal by construction, so no Unitary is built
    return _pvms(_gaussian(rng, dim, dim)[np.newaxis], [ranks])[0]


def random_ranks(dim: int, rng: np.random.Generator, degenerate: bool) -> list:
    """Rank-1 composition, or a random composition with a block of rank >= 2."""
    if dim == 1 or not degenerate:
        return [1] * dim
    parts = []
    remaining = dim
    while remaining:
        part = int(rng.integers(1, remaining + 1))
        parts.append(part)
        remaining -= part
    if all(p == 1 for p in parts):
        parts = [2] + parts[2:]
    return parts


def trial_rng(seed: int, check: str, trial: int) -> np.random.Generator:
    """Independent, reproducible stream for one trial of one check."""
    return np.random.default_rng([seed, _CHECK_IDS[check], trial])


def _draw_model(rng: np.random.Generator, dim: int, force_zero: bool):
    """Draw and build of a quantum-built model; optionally with exact zero first-kind weights.

    The initial state is a random mixture of the first family's projectors,
    which guarantees the repeatability assumption.  For zero trials, some
    mixture weights are set to zero and the corresponding x(i) are zeroed
    exactly after construction so the regularised branch is exercised.
    """
    ranks1 = random_ranks(dim, rng, degenerate=bool(rng.integers(2)))
    if force_zero and len(ranks1) < 2:
        ranks1 = [1] * dim
    g1 = _gaussian(rng, dim, dim)
    k = len(ranks1)
    weights = rng.dirichlet(np.ones(k))
    zero_idx = np.array([], dtype=int)
    if force_zero and k >= 2:
        n_zero = int(rng.integers(1, k))
        zero_idx = rng.choice(k, size=n_zero, replace=False)
        weights[zero_idx] = 0.0
        weights = weights / weights.sum()
    g_u = _gaussian(rng, dim, dim)
    ranks2 = random_ranks(dim, rng, degenerate=bool(rng.integers(2)))
    g2 = _gaussian(rng, dim, dim)
    p_tilde = rng.dirichlet(np.ones(len(ranks2)))
    fam1 = yield _pvms, g1, ranks1
    mixture = qm._weighted(fam1.vectors, np.repeat(weights / fam1.degeneracies, fam1.degeneracies))
    rho0 = yield qm.DensityOperator._stack, mixture
    u = qm._unchecked(qm.Unitary, matrix=qm._frozen((yield _haar, g_u)))
    fam2 = yield _pvms, g2, ranks2
    model = qm.build_sequential_model(rho0, fam1, u, fam2, p_tilde)
    if zero_idx.size:
        x = model.x.copy()
        x[zero_idx] = 0.0
        model = sm.with_x(model, x)
    return model, zero_idx.size > 0


def _built(draw, *args):
    """The instance ``draw(*args)`` builds alone; its error is raised."""
    return _alone(draw(*args))


def _evaluated(evaluate, instances: list) -> list:
    """Each built ``(inputs, counters)``'s residuals or error; ``evaluate.steps`` run batched."""
    return _build([x if isinstance(x, Exception) else evaluate.steps(**x[0]) for x in instances])


# ---------------------------------------------------------------------------
# per-check draw / evaluate / serialize
# ---------------------------------------------------------------------------

def _draw_jcheck(rng, config, trial):
    dim = int(rng.choice(config.dims))
    model, zeroed = yield from _draw_model(rng, dim, trial % 5 == 0 and dim >= 2)
    return {"model": model}, {"zero_x_trials": 1.0 if zeroed else 0.0}


@_one_at_a_time
def evaluate_jcheck(model: sm.SequentialModel) -> dict:
    return {
        "j_residual": sm.j_equation_residual(model),
        "j_reverse_residual": sm.j_equation_reverse_residual(model),
    }
    yield  # no request: a generator function for ``_one_at_a_time``


@_one_at_a_time
def evaluate_chain(model: sm.SequentialModel) -> dict:
    chain = sm.entropy_chain(model)
    hq_exceeds_cross = (
        0.0 if math.isinf(chain.cross) else max(chain.h_q - chain.cross, 0.0)
    )
    ms = sm.marginal_set(model)  # the minimal model's but for p_tilde, as it has this pi and x
    minimal_cross = sm._cross(ms, ms.d_tilde * sm.minimal_x_tilde(model))
    minimal_gap = math.inf if math.isinf(minimal_cross) else abs(chain.h_q - minimal_cross)
    return {
        "hp_exceeds_hq": max(chain.h_p - chain.h_q, 0.0),
        "hq_exceeds_cross": hq_exceeds_cross,
        "minimal_gap": minimal_gap,
    }
    yield  # no request: a generator function for ``_one_at_a_time``


def _draw_klein(rng, config, trial):
    dim = int(rng.choice(config.dims))
    def pick_rank():
        return dim if rng.random() < 0.7 else int(rng.integers(1, dim + 1))
    g_rho = _gaussian(rng, dim, pick_rank())
    g_sigma = _gaussian(rng, dim, pick_rank())
    rho = yield from _density(g_rho)
    return {"rho": rho, "sigma": (yield from _density(g_sigma))}, {}


@_one_at_a_time
def evaluate_klein(rho: qm.DensityOperator, sigma: qm.DensityOperator) -> dict:
    rel, self_rel, _, _ = yield from ent._compared(rho, sigma, self_rel=True)
    return {
        "klein_violation": ent._klein(rel),
        "self_rel_entropy": abs(self_rel),
        "infinite_rel_entropy_trials": 1.0 if math.isinf(rel) else 0.0,
    }


def _draw_luders(rng, config, trial):
    dim = int(rng.choice(config.dims))
    rank = dim if trial % 4 else int(rng.integers(1, dim + 1))
    g_rho = _gaussian(rng, dim, rank)
    ranks = random_ranks(dim, rng, degenerate=bool(trial % 2))
    g_v = _gaussian(rng, dim, dim)
    return {"rho": (yield from _density(g_rho)), "family": (yield _pvms, g_v, ranks)}, {}


def _luders_report_residuals(
    rho: qm.DensityOperator, family: qm.ProjectorFamily, drop_key: str
) -> dict:
    """Steps: residuals of (rho, Lueders image of rho); the entropy drop goes under ``drop_key``."""
    image = yield from qm.luders_channel.steps(rho, family)
    report = yield from ent.entropy_report.steps(rho, image)
    return {
        drop_key: max(report.s_rho - report.s_sigma, 0.0),
        "minimality_residual": report.residuals["max_minimality_deviation"],
        "non_minimal_trials": 0.0 if report.is_minimal else 1.0,
        "identity_residual": report.residuals.get("minimal_identity", math.inf),
    }


@_one_at_a_time
def evaluate_luders(rho: qm.DensityOperator, family: qm.ProjectorFamily) -> dict:
    return (yield from _luders_report_residuals(rho, family, "entropy_drop"))


@_one_at_a_time
def evaluate_minimal(rho: qm.DensityOperator, family: qm.ProjectorFamily) -> dict:
    return (yield from _luders_report_residuals(rho, family, "order_violation"))


def _draw_jarzynski(rng, config, trial):
    dim = int(rng.choice([d for d in config.dims if 2 <= d <= 6] or [2]))
    beta = config.beta_values[trial % len(config.beta_values)]
    h0 = yield from _draw_grounded_hermitian(rng, dim)
    h1 = yield from _draw_grounded_hermitian(rng, dim)
    u = qm._unchecked(qm.Unitary, matrix=qm._frozen((yield _haar, _gaussian(rng, dim, dim))))
    return {"h0": h0, "h1": h1, "u": u, "beta": float(beta)}, {}


def _draw_grounded_hermitian(rng, dim):
    """Random Hermitian with spectrum inside [-2, 2] and ground energy -2.

    Anchoring both Hamiltonians at a common ground energy keeps the
    partition-function ratio of order one, which is what the absolute
    Jarzynski tolerance presumes at beta = 10 in double precision.
    """
    eigs = rng.uniform(-2.0, 2.0, dim)
    eigs = eigs - (eigs.min() + 2.0)
    return qm._weighted((yield _haar, _gaussian(rng, dim, dim)), eigs)


@_one_at_a_time
def evaluate_jarzynski(h0, h1, u: qm.Unitary, beta: float) -> dict:
    result = yield from qm.two_point_work_protocol.steps(h0, h1, u, beta)
    return {"jarzynski_gap": abs(result.lhs - result.rhs)}


def _draw_dilation(rng, config, trial):
    dim = int(rng.choice([d for d in config.dims if d in (2, 3)] or [2]))
    g_rho = _gaussian(rng, dim, dim)
    g_u = _gaussian(rng, dim * dim, dim * dim)
    ranks = random_ranks(dim, rng, degenerate=bool(trial % 2))
    g_v = _gaussian(rng, dim, dim)
    phi = random_state_vector(dim, rng)
    rho = yield from _density(g_rho)
    u_total = qm._unchecked(qm.Unitary, matrix=qm._frozen((yield _haar, g_u)))
    family = yield _pvms, g_v, ranks
    return {"rho": rho, "u_total": u_total, "ancilla_family": family, "phi": phi}, {}


@_one_at_a_time
def evaluate_dilation(rho, u_total, ancilla_family, phi) -> dict:
    res = yield from qm.dilation_analysis.steps(rho, u_total, ancilla_family, phi)
    return {
        "s1_exceeds_s2": max(res.s1 - res.s2, 0.0),
        "s2_exceeds_s3": max(res.s2 - res.s3, 0.0),
    }


@_one_at_a_time
def _swap_reset_extras() -> dict:
    """Fixed regression: SWAP coupling resets a maximally mixed qubit.

    The object entropy drops from log 2 to 0 while the dilation chain
    stays at S1 = S2 = S3 = log 2.
    """
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    basis = qm.ProjectorFamily((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    res = yield from qm.dilation_analysis.steps(
        qm.DensityOperator(np.eye(2) / 2),
        qm.Unitary(swap),
        basis,
        np.array([1.0, 0.0]),
    )
    log2 = math.log(2.0)
    reset = np.diag([1.0, 0.0]).astype(complex)
    return {
        "swap_sigma_dev": qm.max_abs(res.sigma.matrix - reset),
        "swap_entropy_after": ent.von_neumann_entropy(res.sigma),
        "swap_s1_dev": abs(res.s1 - log2),
        "swap_s2_dev": abs(res.s2 - log2),
        "swap_s3_dev": abs(res.s3 - log2),
        "swap_chain_violation": max(res.s1 - res.s2, res.s2 - res.s3, 0.0),
    }


def _draw_counterexample(rng, config, trial):
    return {}, {}
    yield  # no request: a generator function like every draw


#: sigma's clusters in ascending order: eigenvalue, degeneracy, Tr(rho Q), Tr(sigma Q)
_CE_CLUSTERS = (
    (1.0 / 16.0, 1, 0.25, 1.0 / 16.0),
    (3.0 / 16.0, 2, 0.0, 3.0 / 8.0),
    (9.0 / 16.0, 1, 0.75, 9.0 / 16.0),
)


@_one_at_a_time
def evaluate_counterexample() -> dict:
    report = yield from ent.entropy_report.steps(*ent.counterexample_pair())
    minimality = report.minimality
    eigenvalues, degeneracies, q, p_tilde = np.array(_CE_CLUSTERS).T
    if minimality.degeneracies.tolist() != degeneracies.tolist():  # also a count mismatch
        cluster_dev = q_dev = p_tilde_dev = math.inf
    else:
        cluster_dev = float(np.abs(minimality.eigenvalues - eigenvalues).max())
        q_dev = float(np.abs(minimality.q - q).max())
        p_tilde_dev = float(np.abs(minimality.p_tilde - p_tilde).max())
    return {
        "sigma_cluster_dev": cluster_dev,
        "s_rho": report.s_rho,
        "s_sigma_dev": abs(report.s_sigma - COUNTEREXAMPLE_S_SIGMA),
        "identity_residual": report.residuals.get("minimal_identity", math.inf),
        "q_dev": q_dev,
        "p_tilde_dev": p_tilde_dev,
        "minimality_verdict": 1.0 if report.is_minimal else 0.0,
    }


# ---------------------------------------------------------------------------
# serialisation of failure bundles
# ---------------------------------------------------------------------------

def _beta_from_json(obj) -> float:
    beta = sm.real_array(obj)
    if beta is None or beta.shape != ():
        raise InputError("beta must be a number")
    return float(beta)


def _operator_to_json(op) -> dict:
    return qm.matrix_to_json(op.matrix)


#: each trial input's bundle key and its (to JSON, from JSON) pair
_CODECS = {
    "model": ("model", sm.model_to_json, sm.model_from_json),
    "rho": ("rho", _operator_to_json, qm.density_from_json),
    "sigma": ("sigma", _operator_to_json, qm.density_from_json),
    "family": ("projectors", qm.family_to_json, qm.family_from_json),
    "ancilla_family": ("ancilla_projectors", qm.family_to_json, qm.family_from_json),
    "u": ("u", _operator_to_json, qm.unitary_from_json),
    "u_total": ("u_total", _operator_to_json, qm.unitary_from_json),
    "h0": ("h0", qm.matrix_to_json, qm.matrix_from_json),
    "h1": ("h1", qm.matrix_to_json, qm.matrix_from_json),
    "beta": ("beta", float, _beta_from_json),
    "phi": ("phi", qm.pairs_to_json, functools.partial(qm.pairs_from_json, ndim=1)),
}


def _serialize(**inputs) -> dict:
    """The failure-bundle ``inputs`` of a trial: each input under its bundle key, as JSON."""
    return {_CODECS[name][0]: _CODECS[name][1](value) for name, value in inputs.items()}


def _deserialize(evaluate, obj) -> dict:
    """The arguments of ``evaluate`` read from bundle ``inputs``, which must hold exactly their keys."""
    keys = {_CODECS[name][0]: name for name in inspect.signature(evaluate).parameters}
    sm.exact_keys(obj, keys, "bundle inputs")
    return {name: _CODECS[name][2](obj[key]) for key, name in keys.items()}


# ---------------------------------------------------------------------------
# check registry and the suite runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckSpec:
    trial_fraction: float | None  # None: single fixed instance
    tolerances: dict
    draw: object  # generator function (rng, config, trial) that draws and builds (inputs, counters)
    evaluate: object  # steps of (**inputs) -> residuals; its parameter names key the bundle codec
    rng_alias: str | None = None
    fixed: object | None = None  # steps of () -> residuals of trial -1; ``evaluate`` does the rest
    serialize: object = _serialize  # (**inputs) -> a failure bundle's JSON inputs
    #: (rng, config, trial) -> (inputs, counters) of one trial built alone, derived
    #: from ``draw`` unless given; the suite builds batches of draws, never calling it
    generate: object = None

    def __post_init__(self):
        if self.generate is None or getattr(self.generate, "func", None) is _built:
            object.__setattr__(self, "generate", functools.partial(_built, self.draw))


CHECK_SPECS = {
    "jcheck": CheckSpec(
        trial_fraction=1.0,
        tolerances={"j_residual": 1e-9, "j_reverse_residual": 1e-9},
        draw=_draw_jcheck,
        evaluate=evaluate_jcheck,
    ),
    "chain": CheckSpec(
        trial_fraction=1.0,
        tolerances={
            "hp_exceeds_hq": 1e-10,
            "hq_exceeds_cross": 1e-10,
            "minimal_gap": 1e-12,
        },
        draw=_draw_jcheck,
        evaluate=evaluate_chain,
        rng_alias="jcheck",
    ),
    "klein": CheckSpec(
        trial_fraction=1.0,
        tolerances={"klein_violation": 1e-10, "self_rel_entropy": 1e-12},
        draw=_draw_klein,
        evaluate=evaluate_klein,
    ),
    "luders": CheckSpec(
        trial_fraction=1.0,
        tolerances={
            "entropy_drop": 1e-10,
            "minimality_residual": 1e-10,
            "non_minimal_trials": 0.5,
            "identity_residual": 1e-9,
        },
        draw=_draw_luders,
        evaluate=evaluate_luders,
    ),
    "minimal": CheckSpec(
        trial_fraction=1.0,
        tolerances={
            "identity_residual": 1e-9,
            "order_violation": 1e-10,
            "minimality_residual": 1e-10,
            "non_minimal_trials": 0.5,
        },
        draw=_draw_luders,
        evaluate=evaluate_minimal,
    ),
    "jarzynski": CheckSpec(
        trial_fraction=0.3,
        tolerances={"jarzynski_gap": 1e-9},
        draw=_draw_jarzynski,
        evaluate=evaluate_jarzynski,
    ),
    "dilation": CheckSpec(
        trial_fraction=0.3,
        tolerances={
            "s1_exceeds_s2": 1e-9,
            "s2_exceeds_s3": 1e-9,
            "swap_sigma_dev": 1e-12,
            "swap_entropy_after": 1e-12,
            "swap_s1_dev": 1e-12,
            "swap_s2_dev": 1e-12,
            "swap_s3_dev": 1e-9,
            "swap_chain_violation": 1e-9,
        },
        draw=_draw_dilation,
        evaluate=evaluate_dilation,
        fixed=_swap_reset_extras,
    ),
    "counterexample": CheckSpec(
        trial_fraction=None,
        tolerances={
            "sigma_cluster_dev": 1e-12,
            "s_rho": 1e-12,
            "s_sigma_dev": 1e-12,
            "identity_residual": 1e-9,
            "q_dev": 1e-12,
            "p_tilde_dev": 1e-12,
            "minimality_verdict": 0.5,
        },
        draw=_draw_counterexample,
        evaluate=evaluate_counterexample,
    ),
}


def n_trials(name: str, config: ExperimentConfig) -> int:
    spec = CHECK_SPECS[name]
    if spec.trial_fraction is None:
        return 1
    return max(1, round(spec.trial_fraction * config.trials))


def _gates(pinned: dict, tol) -> dict:
    """The ``pinned`` gates, each set to ``tol`` if one is given, except the 0/1 verdicts."""
    return {k: g if tol is None or k in _VERDICT_KEYS else float(tol) for k, g in pinned.items()}


def _trial_records(names: tuple, config: ExperimentConfig, trials: range) -> tuple:
    """``(records, seconds)`` of a stream group's trials, each keyed by check name.

    One :func:`_build` runs the first check's ``draw`` of each trial, on the
    trial's own stream, into an instance or its error, and each check
    evaluates the trials side by side (:func:`_evaluated`).  A
    check's records are one ``(residuals, generated counters, failure bundle
    or None)`` per trial, in order; its seconds are its time in the loop, the
    draws counted for the first check.  Worker processes run the loop too, so
    it takes only picklable arguments.
    """
    first = CHECK_SPECS[names[0]]
    stream = first.rng_alias or names[0]
    seed = [config.seed, _CHECK_IDS[stream]]
    gates = {name: _gates(CHECK_SPECS[name].tolerances, config.tol) for name in names}
    records = {name: [] for name in names}
    seconds = {}
    started = time.perf_counter()
    instances = _build([first.draw(trial_rng(config.seed, stream, t), config, t) for t in trials])
    for name in names:
        evaluations = _evaluated(CHECK_SPECS[name].evaluate, instances)
        for trial, instance, residuals in zip(trials, instances, evaluations):
            bundle = {"check": name, "trial": trial, "seed_derivation": [*seed, trial]}
            records[name].append(_trial_record(gates[name], bundle, instance, residuals))
        seconds[name] = time.perf_counter() - started
        started = time.perf_counter()
    return records, seconds


def _trial_record(tolerances: dict, bundle: dict, instance, residuals) -> tuple:
    """Record of the check and trial ``bundle`` names, from ``(inputs, counters)`` or its error,
    and from its ``residuals`` or their error."""
    if isinstance(residuals, Exception):
        # a broken instance aborts its trial, never the run, and
        # leaves enough behind to regenerate it deterministically
        error = f"{type(residuals).__name__}: {residuals}"
        return {}, {}, {**bundle, "error": error, "residuals": {}, "inputs": {}}
    inputs, generated_counters = instance
    if all(v <= tolerances[k] for k, v in residuals.items() if k in tolerances):  # False on nan
        return residuals, generated_counters, None
    bundle["residuals"] = {k: _json_float(v) for k, v in residuals.items()}
    bundle["inputs"] = CHECK_SPECS[bundle["check"]].serialize(**inputs)
    return residuals, generated_counters, bundle


def _outcome(name: str, config: ExperimentConfig, records) -> CheckOutcome:
    """Fold the trial records, in trial order, into one check's outcome; its duration is left 0.

    A residual that no trial evaluated, as when every trial failed at build, reads NaN."""
    spec = CHECK_SPECS[name]
    tolerances = _gates(spec.tolerances, config.tol)
    if spec.fixed is not None:  # the fixed instance is trial -1, folded last
        (residuals,) = _evaluated(spec.fixed, [({}, {})])
        fixed = _trial_record(tolerances, {"check": name, "trial": -1}, ({}, {}), residuals)
        records = [*records, fixed]
    maxima: dict = {}
    counters: dict = {}
    failures: list = []
    for residuals, generated_counters, failure in records:
        for key, value in residuals.items():
            if key in tolerances:
                if value > maxima.setdefault(key, 0.0) or math.isnan(value):  # a NaN sticks
                    maxima[key] = value
            else:
                counters[key] = counters.get(key, 0.0) + value
        for key, value in generated_counters.items():
            counters[key] = counters.get(key, 0.0) + value
        if failure is not None:
            failures.append(failure)
    return CheckOutcome(
        name=name,
        trials=n_trials(name, config),
        residual_maxima={k: maxima.get(k, math.nan) for k in tolerances},
        tolerances=tolerances,
        counters=counters,
        failures=failures,
        duration_seconds=0.0,
        passed=not failures,
    )


#: trial chunks per worker process and stream group, so that uneven trials balance
_CHUNKS_PER_WORKER = 4

#: trials one chunk holds at d <= 8; at larger d, fewer in proportion to
#: d**3, the size of a family stack, so a chunk's memory stays bounded
_CHUNK_TRIALS = 256

#: BLAS thread-count variables set to 1 while a worker pool lives
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _pool_workers(n_checks: int) -> int:
    """Worker processes for a suite of ``n_checks`` checks; fewer than 2 means none.

    A worker importing a script that runs the suite raises before it makes a pool.
    """
    import multiprocessing  # here, not at import: the pool's imports cost ~20 ms

    if multiprocessing.parent_process() is not None:
        return 1  # already a worker: never nest pools
    if getattr(multiprocessing.current_process(), "_inheriting", False):  # set while re-importing
        raise SeqMeasError('a script that runs the suite needs an if __name__ == "__main__": guard')
    main_file = getattr(sys.modules["__main__"], "__file__", None)
    if main_file is not None and not os.path.isfile(main_file):
        return 1  # e.g. a script read from stdin, which a worker cannot re-import
    return min(_cpu_count(), n_checks)


@contextlib.contextmanager
def _worker_pool(workers: int):
    """The ``map`` of fresh worker processes, each with BLAS pinned to one thread.

    The workers share the CPUs; a BLAS thread pool in each would
    oversubscribe them.  They fork from a forkserver (spawn on Windows) that
    imported numpy and this module inside the pin at the first pool, and exits
    with this process.  ``os.environ`` is restored when the pool closes.  A
    worker that dies, as one re-importing an unguarded script, raises ``SeqMeasError``.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context(
        "forkserver" if "forkserver" in multiprocessing.get_all_start_methods() else "spawn")
    context.set_forkserver_preload(["seqmeas.harness"])  # never "__main__", an unguarded script
    saved = {key: os.environ.get(key) for key in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            yield pool.map
    except BrokenProcessPool as exc:
        raise SeqMeasError(
            'a worker died; a script that runs the suite needs an if __name__ == "__main__": guard'
        ) from exc
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _run_group(run, workers: int, names: tuple, config: ExperimentConfig) -> list:
    """The outcomes of one stream group, its trials run in contiguous chunks, four per worker
    and at most ``_CHUNK_TRIALS`` at d <= 8.

    ``run`` maps the loop over the chunks: ``map`` here, a pool's in worker processes.
    The group's wall time is split between its checks by their seconds in
    the loop, so the checks' durations add up to it.
    """
    started = time.perf_counter()
    trials = n_trials(names[0], config)
    size = min(-(-trials // (_CHUNKS_PER_WORKER * workers)),
               max(1, _CHUNK_TRIALS * 8**3 // max(8, *config.dims) ** 3))
    chunks = [range(lo, min(lo + size, trials)) for lo in range(0, trials, size)]
    parts = list(run(_trial_records, [names] * len(chunks), [config] * len(chunks), chunks))
    outcomes = [_outcome(name, config, [r for rs, _ in parts for r in rs[name]]) for name in names]
    wall = time.perf_counter() - started
    seconds = {name: sum(secs[name] for _, secs in parts) for name in names}
    total = sum(seconds.values()) or 1.0  # never a division by a zero clock reading
    for outcome in outcomes:
        outcome.duration_seconds = wall * (seconds[outcome.name] / total)
    return outcomes


def run_check(name: str, config: ExperimentConfig) -> CheckOutcome:
    """Run one named check over its deterministic trial streams, in this process."""
    return _run_group(map, 1, (name,), config)[0]


def run_suite(config: ExperimentConfig) -> ExperimentReport:
    """Run every requested check; the report is reproducible bit for bit.

    Checks that share a trial stream run as one group.  With more than one
    CPU the trials go to a pool of worker processes; the report is the same
    either way, durations aside.
    """
    started = time.perf_counter()
    groups: dict = {}
    for name in CHECK_ORDER:
        if name in config.check_set:
            groups.setdefault(CHECK_SPECS[name].rng_alias or name, []).append(name)
    workers = _pool_workers(sum(map(len, groups.values())))
    with _worker_pool(workers) if workers > 1 else contextlib.nullcontext(map) as run:
        checks = [c for g in groups.values() for c in _run_group(run, workers, tuple(g), config)]
    return ExperimentReport(
        config=config,
        checks=checks,
        duration_seconds=time.perf_counter() - started,
        passed=all(c.passed for c in checks),
    )


def replay_failure(bundle: dict) -> dict:
    """Re-run a serialized failure bundle; returns the recomputed residuals.

    A bundle of trial -1 records a failed fixed instance and re-runs ``spec.fixed``.
    """
    if not isinstance(bundle, dict) or "check" not in bundle or "inputs" not in bundle:
        raise InputError('failure bundle needs keys "check" and "inputs"')
    name = bundle["check"]
    if not isinstance(name, str) or name not in CHECK_SPECS:
        raise InputError(f"unknown check {name!r}")
    if bundle.get("error") and not bundle["inputs"]:
        raise InputError(
            "bundle records a generation error; regenerate from its seed_derivation"
        )
    spec = CHECK_SPECS[name]
    evaluate = spec.fixed if bundle.get("trial") == -1 else spec.evaluate
    if evaluate is None:
        raise InputError(f"check {name!r} has no fixed instance")
    return evaluate(**_deserialize(evaluate, bundle["inputs"]))

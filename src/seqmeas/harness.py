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

Dispatch: checks that share a trial stream form a group.  One loop,
``_trial_records``, generates each trial of a group once and turns it into
one record per check (residuals, generated counters, failure bundle or
None); ``_outcome`` folds a check's records in trial order into its maxima,
counters and failures.  ``_run_group`` runs the loop over a group's trials
in contiguous chunks, four per worker, in this process or in worker
processes; :func:`run_check` is a one-check group in process.
:func:`run_suite` starts ``min(CPUs, checks)`` spawned workers, each with
BLAS pinned to one thread, unless only one CPU is available or it already
runs inside a worker.  The fold is the same on both paths, so the report is
the same bit for bit.  A group's wall time is split between its checks by
their time in the loop, generation counted for the first check.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import entropy as ent
from . import quantum as qm
from . import stat_model as sm
from .errors import ConfigError, InputError, SeqMeasError

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

#: literature value of the counterexample entropy S(sigma), in nats
COUNTEREXAMPLE_S_SIGMA = 1.1246703

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
        # bools are ints to Python; int() would truncate 2.7 and float() read "1"
        if not all(_is_integral(d) or isinstance(d, float) and d.is_integer() for d in self.dims):
            raise ConfigError("dims must be a non-empty list of integers in [1, 64]")
        if not all(_is_real(b) for b in self.beta_values):
            raise ConfigError("beta_values must be positive and finite")
        if not _is_integral(self.seed) or not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if not _is_integral(self.trials) or self.trials < 1:
            raise ConfigError("trials must be a positive integer")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "beta_values", tuple(float(b) for b in self.beta_values))
        object.__setattr__(self, "check_set", tuple(str(c) for c in self.check_set))
        if not self.dims or any(d < 1 or d > 64 for d in self.dims):
            raise ConfigError("dims must be a non-empty list of integers in [1, 64]")
        # an inf gate would pass the inf markers of undefined identities
        if self.tol is not None and not (_is_real(self.tol) and 0 < self.tol < math.inf):
            raise ConfigError("tol must be positive and finite when given")
        if not self.beta_values or any(not (b > 0 and math.isfinite(b)) for b in self.beta_values):
            raise ConfigError("beta_values must be positive and finite")
        unknown = set(self.check_set) - set(CHECK_ORDER)
        if unknown:
            raise ConfigError(f"unknown checks: {sorted(unknown)}")
        if not self.check_set:
            raise ConfigError("check_set must not be empty")

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "dims": list(self.dims),
            "trials": self.trials,
            "tol": self.tol,
            "beta_values": list(self.beta_values),
            "check_set": list(self.check_set),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config document must be a JSON object")
        unknown = set(obj) - {"seed", "dims", "trials", "tol", "beta_values", "check_set"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**obj)


def _is_integral(value) -> bool:
    """An integer of any integral type; never a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
# random instance generators
# ---------------------------------------------------------------------------

def random_density(
    dim: int, rank: int | None = None, *, rng: np.random.Generator
) -> qm.DensityOperator:
    """Normalised G G* for a dim x rank standard complex Gaussian G."""
    if rank is None:
        rank = dim
    if not 1 <= rank <= dim:
        raise InputError(f"rank must lie in [1, {dim}], got {rank}")
    g = (rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))) / math.sqrt(2)
    m = g @ g.conj().T
    return qm.DensityOperator(m / np.trace(m).real)


def _haar_columns(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary matrix via QR with the positive-diagonal phase fix."""
    if dim < 1:
        raise InputError("dim must be positive")
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases[np.newaxis, :]


def random_unitary(dim: int, rng: np.random.Generator) -> qm.Unitary:
    """Haar-distributed unitary."""
    return qm.Unitary(_haar_columns(dim, rng))


def random_state_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_pvm(dim: int, ranks, rng: np.random.Generator) -> qm.ProjectorFamily:
    """Random complete family with the given degeneracies."""
    ranks = [int(r) for r in ranks]
    if any(r < 1 for r in ranks) or sum(ranks) != dim:
        raise InputError(f"ranks {ranks} must be positive and sum to dim={dim}")
    # _from_columns checks the columns' orthonormality, so no Unitary is built
    return qm.ProjectorFamily._from_columns(_haar_columns(dim, rng), ranks)


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


def _random_quantum_model(rng: np.random.Generator, dim: int, force_zero: bool):
    """Quantum-built model; optionally with exact zero first-kind weights.

    The initial state is a random mixture of the first family's projectors,
    which guarantees the repeatability assumption.  For zero trials, some
    mixture weights are set to zero and the corresponding x(i) are zeroed
    exactly after construction so the regularised branch is exercised.
    """
    ranks1 = random_ranks(dim, rng, degenerate=bool(rng.integers(2)))
    if force_zero and len(ranks1) < 2:
        ranks1 = [1] * dim
    fam1 = random_pvm(dim, ranks1, rng)
    k = len(fam1)
    weights = rng.dirichlet(np.ones(k))
    zero_idx = np.array([], dtype=int)
    if force_zero and k >= 2:
        n_zero = int(rng.integers(1, k))
        zero_idx = rng.choice(k, size=n_zero, replace=False)
        weights[zero_idx] = 0.0
        weights = weights / weights.sum()
    mixture = (weights / fam1.degeneracies)[:, None, None] * fam1.stack
    rho0 = qm.DensityOperator(mixture.sum(axis=0))
    u = random_unitary(dim, rng)
    fam2 = random_pvm(dim, random_ranks(dim, rng, degenerate=bool(rng.integers(2))), rng)
    p_tilde = rng.dirichlet(np.ones(len(fam2)))
    model = qm.build_sequential_model(rho0, fam1, u, fam2, p_tilde)
    if zero_idx.size:
        x = model.x.copy()
        x[zero_idx] = 0.0
        model = sm.with_x(model, x)
    return model, zero_idx.size > 0


def _require_valid(model: sm.SequentialModel) -> sm.SequentialModel:
    violations = sm.validate_model(model)
    if violations:
        raise InputError(f"generated model is invalid: {violations}")
    return model


# ---------------------------------------------------------------------------
# per-check generate / evaluate / serialize
# ---------------------------------------------------------------------------

def _dims_for(name: str, config: ExperimentConfig) -> list:
    if name == "jarzynski":
        filtered = [d for d in config.dims if 2 <= d <= 6]
        return filtered or [2]
    if name == "dilation":
        filtered = [d for d in config.dims if d in (2, 3)]
        return filtered or [2]
    return list(config.dims)


def _generate_jcheck(rng, config, trial):
    dim = int(rng.choice(_dims_for("jcheck", config)))
    force_zero = trial % 5 == 0 and dim >= 2
    model, zeroed = _random_quantum_model(rng, dim, force_zero)
    return {"model": _require_valid(model)}, {"zero_x_trials": 1.0 if zeroed else 0.0}


def evaluate_jcheck(model: sm.SequentialModel) -> dict:
    return {
        "j_residual": sm.j_equation_residual(model),
        "j_reverse_residual": sm.j_equation_reverse_residual(model),
    }


def evaluate_chain(model: sm.SequentialModel) -> dict:
    chain = sm.entropy_chain(model)
    hq_exceeds_cross = (
        0.0 if math.isinf(chain.cross) else max(chain.h_q - chain.cross, 0.0)
    )
    minimal = sm.with_x_tilde(model, sm.minimal_x_tilde(model))
    chain_min = sm.entropy_chain(minimal)
    minimal_gap = (
        math.inf if math.isinf(chain_min.cross) else abs(chain_min.h_q - chain_min.cross)
    )
    return {
        "hp_exceeds_hq": max(chain.h_p - chain.h_q, 0.0),
        "hq_exceeds_cross": hq_exceeds_cross,
        "minimal_gap": minimal_gap,
    }


def _generate_klein(rng, config, trial):
    dim = int(rng.choice(_dims_for("klein", config)))
    def pick_rank():
        return dim if rng.random() < 0.7 else int(rng.integers(1, dim + 1))
    rho = random_density(dim, pick_rank(), rng=rng)
    sigma = random_density(dim, pick_rank(), rng=rng)
    return {"rho": rho, "sigma": sigma}, {}


def evaluate_klein(rho: qm.DensityOperator, sigma: qm.DensityOperator) -> dict:
    klein = ent.klein_check(rho, sigma)
    return {
        "klein_violation": klein.residual,
        "self_rel_entropy": abs(ent.relative_entropy(rho, rho)),
        "infinite_rel_entropy_trials": 1.0 if math.isinf(klein.value) else 0.0,
    }


def _generate_luders(rng, config, trial):
    dim = int(rng.choice(_dims_for("luders", config)))
    rank = dim if trial % 4 else int(rng.integers(1, dim + 1))
    rho = random_density(dim, rank, rng=rng)
    family = random_pvm(dim, random_ranks(dim, rng, degenerate=bool(trial % 2)), rng)
    return {"rho": rho, "family": family}, {}


def _luders_report_residuals(
    rho: qm.DensityOperator, family: qm.ProjectorFamily, drop_key: str
) -> dict:
    """Residuals of (rho, Lueders image of rho); the entropy drop goes under ``drop_key``."""
    report = ent.entropy_report(rho, qm.luders_channel(rho, family))
    return {
        drop_key: max(report.s_rho - report.s_sigma, 0.0),
        "minimality_residual": report.residuals["max_minimality_deviation"],
        "non_minimal_trials": 0.0 if report.is_minimal else 1.0,
        "identity_residual": report.residuals.get("minimal_identity", math.inf),
    }


def evaluate_luders(rho: qm.DensityOperator, family: qm.ProjectorFamily) -> dict:
    return _luders_report_residuals(rho, family, "entropy_drop")


def evaluate_minimal(rho: qm.DensityOperator, family: qm.ProjectorFamily) -> dict:
    return _luders_report_residuals(rho, family, "order_violation")


def _generate_jarzynski(rng, config, trial):
    dim = int(rng.choice(_dims_for("jarzynski", config)))
    beta = config.beta_values[trial % len(config.beta_values)]
    return {
        "h0": _random_grounded_hermitian(rng, dim),
        "h1": _random_grounded_hermitian(rng, dim),
        "u": random_unitary(dim, rng),
        "beta": float(beta),
    }, {}


def _random_grounded_hermitian(rng, dim) -> np.ndarray:
    """Random Hermitian with spectrum inside [-2, 2] and ground energy -2.

    Anchoring both Hamiltonians at a common ground energy keeps the
    partition-function ratio of order one, which is what the absolute
    Jarzynski tolerance presumes at beta = 10 in double precision.
    """
    eigs = rng.uniform(-2.0, 2.0, dim)
    eigs = eigs - (eigs.min() + 2.0)
    v = _haar_columns(dim, rng)
    h = (v * eigs[np.newaxis, :]) @ v.conj().T
    return 0.5 * (h + h.conj().T)


def evaluate_jarzynski(h0, h1, u: qm.Unitary, beta: float) -> dict:
    result = qm.two_point_work_protocol(h0, h1, u, beta)
    return {"jarzynski_gap": abs(result.lhs - result.rhs)}


def _generate_dilation(rng, config, trial):
    dim = int(rng.choice(_dims_for("dilation", config)))
    return {
        "rho": random_density(dim, rng=rng),
        "u_total": random_unitary(dim * dim, rng),
        "ancilla_family": random_pvm(dim, random_ranks(dim, rng, degenerate=bool(trial % 2)), rng),
        "phi": random_state_vector(dim, rng),
    }, {}


def evaluate_dilation(rho, u_total, ancilla_family, phi) -> dict:
    res = qm.dilation_analysis(rho, u_total, ancilla_family, phi)
    return {
        "s1_exceeds_s2": max(res.s1 - res.s2, 0.0),
        "s2_exceeds_s3": max(res.s2 - res.s3, 0.0),
    }


def _swap_reset_extras() -> dict:
    """Fixed regression: SWAP coupling resets a maximally mixed qubit.

    The object entropy drops from log 2 to 0 while the dilation chain
    stays at S1 = S2 = S3 = log 2.
    """
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    basis = qm.ProjectorFamily((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    res = qm.dilation_analysis(
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


def _generate_counterexample(rng, config, trial):
    return {}, {}


#: reference values are stated in cluster order (3/16, 1/16, 9/16)
_CE_DISPLAY_EIGENVALUES = (3.0 / 16.0, 1.0 / 16.0, 9.0 / 16.0)
_CE_EXPECTED_Q = (0.0, 0.25, 0.75)
_CE_EXPECTED_P_TILDE = (3.0 / 8.0, 1.0 / 16.0, 9.0 / 16.0)


def evaluate_counterexample() -> dict:
    report = ent.entropy_report(*ent.counterexample_pair())
    minimality = report.minimality
    expected = [(1.0 / 16.0, 1), (3.0 / 16.0, 2), (9.0 / 16.0, 1)]
    if len(minimality.eigenvalues) != len(expected):
        cluster_dev = math.inf
    else:
        cluster_dev = 0.0
        for (ev, deg), got_ev, got_deg in zip(
            expected, minimality.eigenvalues, minimality.degeneracies
        ):
            cluster_dev = max(cluster_dev, abs(got_ev - ev))
            if int(got_deg) != deg:
                cluster_dev = math.inf
    q_dev = 0.0
    p_tilde_dev = 0.0
    for ev, q_exp, pt_exp in zip(
        _CE_DISPLAY_EIGENVALUES, _CE_EXPECTED_Q, _CE_EXPECTED_P_TILDE
    ):
        k = int(np.argmin(np.abs(minimality.eigenvalues - ev)))
        q_dev = max(q_dev, abs(minimality.q[k] - q_exp))
        p_tilde_dev = max(p_tilde_dev, abs(minimality.p_tilde[k] - pt_exp))
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

def _ser_model(model):
    return {"model": sm.model_to_json(model)}


def _des_model(obj):
    return {"model": sm.model_from_json(obj["model"])}


def _ser_pair(rho, sigma):
    return {"rho": qm.matrix_to_json(rho.matrix), "sigma": qm.matrix_to_json(sigma.matrix)}


def _des_pair(obj):
    return {
        "rho": qm.density_from_json(obj["rho"]),
        "sigma": qm.density_from_json(obj["sigma"]),
    }


def _ser_state_family(rho, family):
    return {
        "rho": qm.matrix_to_json(rho.matrix),
        "projectors": [qm.matrix_to_json(p) for p in family.projectors],
    }


def _des_state_family(obj):
    return {
        "rho": qm.density_from_json(obj["rho"]),
        "family": qm.family_from_json(obj["projectors"]),
    }


def _ser_jarzynski(h0, h1, u, beta):
    return {
        "h0": qm.matrix_to_json(h0),
        "h1": qm.matrix_to_json(h1),
        "u": qm.matrix_to_json(u.matrix),
        "beta": beta,
    }


def _des_jarzynski(obj):
    return {
        "h0": qm.hermitian_from_json(obj["h0"]),
        "h1": qm.hermitian_from_json(obj["h1"]),
        "u": qm.unitary_from_json(obj["u"]),
        "beta": float(obj["beta"]),
    }


def _ser_dilation(rho, u_total, ancilla_family, phi):
    return {
        "rho": qm.matrix_to_json(rho.matrix),
        "u_total": qm.matrix_to_json(u_total.matrix),
        "ancilla_projectors": [qm.matrix_to_json(p) for p in ancilla_family.projectors],
        "phi": [[float(z.real), float(z.imag)] for z in phi],
    }


def _des_dilation(obj):
    return {
        "rho": qm.density_from_json(obj["rho"]),
        "u_total": qm.unitary_from_json(obj["u_total"]),
        "ancilla_family": qm.family_from_json(obj["ancilla_projectors"]),
        "phi": np.array([complex(re, im) for re, im in obj["phi"]]),
    }


# ---------------------------------------------------------------------------
# check registry and the suite runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckSpec:
    name: str
    trial_fraction: float | None  # None: single fixed instance
    tolerances: dict
    generate: object
    evaluate: object
    serialize: object
    deserialize: object
    rng_alias: str | None = None
    fixed: object | None = None
    fixed_tolerances: dict = field(default_factory=dict)


CHECK_SPECS = {
    "jcheck": CheckSpec(
        name="jcheck",
        trial_fraction=1.0,
        tolerances={"j_residual": 1e-9, "j_reverse_residual": 1e-9},
        generate=_generate_jcheck,
        evaluate=evaluate_jcheck,
        serialize=_ser_model,
        deserialize=_des_model,
    ),
    "chain": CheckSpec(
        name="chain",
        trial_fraction=1.0,
        tolerances={
            "hp_exceeds_hq": 1e-10,
            "hq_exceeds_cross": 1e-10,
            "minimal_gap": 1e-12,
        },
        generate=_generate_jcheck,
        evaluate=evaluate_chain,
        serialize=_ser_model,
        deserialize=_des_model,
        rng_alias="jcheck",
    ),
    "klein": CheckSpec(
        name="klein",
        trial_fraction=1.0,
        tolerances={"klein_violation": 1e-10, "self_rel_entropy": 1e-12},
        generate=_generate_klein,
        evaluate=evaluate_klein,
        serialize=_ser_pair,
        deserialize=_des_pair,
    ),
    "luders": CheckSpec(
        name="luders",
        trial_fraction=1.0,
        tolerances={
            "entropy_drop": 1e-10,
            "minimality_residual": 1e-10,
            "non_minimal_trials": 0.5,
            "identity_residual": 1e-9,
        },
        generate=_generate_luders,
        evaluate=evaluate_luders,
        serialize=_ser_state_family,
        deserialize=_des_state_family,
    ),
    "minimal": CheckSpec(
        name="minimal",
        trial_fraction=1.0,
        tolerances={
            "identity_residual": 1e-9,
            "order_violation": 1e-10,
            "minimality_residual": 1e-10,
            "non_minimal_trials": 0.5,
        },
        generate=_generate_luders,
        evaluate=evaluate_minimal,
        serialize=_ser_state_family,
        deserialize=_des_state_family,
    ),
    "jarzynski": CheckSpec(
        name="jarzynski",
        trial_fraction=0.3,
        tolerances={"jarzynski_gap": 1e-9},
        generate=_generate_jarzynski,
        evaluate=evaluate_jarzynski,
        serialize=_ser_jarzynski,
        deserialize=_des_jarzynski,
    ),
    "dilation": CheckSpec(
        name="dilation",
        trial_fraction=0.3,
        tolerances={"s1_exceeds_s2": 1e-9, "s2_exceeds_s3": 1e-9},
        generate=_generate_dilation,
        evaluate=evaluate_dilation,
        serialize=_ser_dilation,
        deserialize=_des_dilation,
        fixed=_swap_reset_extras,
        fixed_tolerances={
            "swap_sigma_dev": 1e-12,
            "swap_entropy_after": 1e-12,
            "swap_s1_dev": 1e-12,
            "swap_s2_dev": 1e-12,
            "swap_s3_dev": 1e-9,
            "swap_chain_violation": 1e-9,
        },
    ),
    "counterexample": CheckSpec(
        name="counterexample",
        trial_fraction=None,
        tolerances={
            "sigma_cluster_dev": 1e-12,
            "s_rho": 1e-12,
            "s_sigma_dev": 1e-6,
            "identity_residual": 1e-9,
            "q_dev": 1e-12,
            "p_tilde_dev": 1e-12,
            "minimality_verdict": 0.5,
        },
        generate=_generate_counterexample,
        evaluate=evaluate_counterexample,
        serialize=lambda: {},
        deserialize=lambda obj: {},
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

    The first check's ``generate`` makes each trial's instance once.  A
    check's records are one ``(residuals, generated counters, failure bundle
    or None)`` per trial, in order; its seconds are its time in the loop.
    Worker processes run the loop too, so it takes only picklable arguments.
    """
    first = CHECK_SPECS[names[0]]
    stream = first.rng_alias or names[0]
    gates = {name: _gates(CHECK_SPECS[name].tolerances, config.tol) for name in names}
    records = {name: [] for name in names}
    seconds = dict.fromkeys(names, 0.0)
    for trial in trials:
        bundle = {"trial": trial, "seed_derivation": [config.seed, _CHECK_IDS[stream], trial]}
        started = time.perf_counter()
        try:
            instance = first.generate(trial_rng(config.seed, stream, trial), config, trial)
        except (SeqMeasError, np.linalg.LinAlgError) as exc:
            instance = exc
        for name in names:
            record = _trial_record(name, gates[name], {"check": name, **bundle}, instance)
            records[name].append(record)
            seconds[name] += time.perf_counter() - started
            started = time.perf_counter()
    return records, seconds


def _trial_record(name: str, tolerances: dict, bundle: dict, instance) -> tuple:
    """A check's record of one trial; ``instance`` is ``(inputs, counters)`` or its error."""
    try:
        if isinstance(instance, Exception):
            raise instance
        inputs, generated_counters = instance
        residuals = CHECK_SPECS[name].evaluate(**inputs)
    except (SeqMeasError, np.linalg.LinAlgError) as exc:
        # a broken instance aborts its trial, never the run, and
        # leaves enough behind to regenerate it deterministically
        error = f"{type(exc).__name__}: {exc}"
        return {}, {}, {**bundle, "error": error, "residuals": {}, "inputs": {}}
    if all(v <= tolerances[k] for k, v in residuals.items() if k in tolerances):  # False on nan
        return residuals, generated_counters, None
    bundle["residuals"] = {k: _json_float(v) for k, v in residuals.items()}
    bundle["inputs"] = CHECK_SPECS[name].serialize(**inputs)
    return residuals, generated_counters, bundle


def _outcome(name: str, config: ExperimentConfig, records) -> CheckOutcome:
    """Fold the trial records, in trial order, into one check's outcome; its duration is left 0."""
    spec = CHECK_SPECS[name]
    tolerances = _gates(spec.tolerances, config.tol)
    maxima = {k: 0.0 for k in tolerances}
    counters: dict = {}
    failures: list = []
    for residuals, generated_counters, failure in records:
        for key, value in residuals.items():
            if key in tolerances:
                if value > maxima[key] or math.isnan(value):  # a NaN sticks
                    maxima[key] = value
            else:
                counters[key] = counters.get(key, 0.0) + value
        for key, value in generated_counters.items():
            counters[key] = counters.get(key, 0.0) + value
        if failure is not None:
            failures.append(failure)
    if spec.fixed is not None:
        fixed_tols = _gates(spec.fixed_tolerances, config.tol)
        extras = spec.fixed()
        maxima.update(extras)
        tolerances.update(fixed_tols)
        if any(not extras[k] <= fixed_tols[k] for k in extras):
            residuals = {k: _json_float(v) for k, v in extras.items()}
            failures.append({"check": name, "trial": -1, "residuals": residuals, "inputs": {}})
    return CheckOutcome(
        name=name,
        trials=n_trials(name, config),
        residual_maxima=maxima,
        tolerances=tolerances,
        counters=counters,
        failures=failures,
        duration_seconds=0.0,
        passed=not failures,
    )


#: trial chunks per worker process and stream group, so that uneven trials balance
_CHUNKS_PER_WORKER = 4

#: BLAS thread-count variables set to 1 while a worker pool lives
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _pool_workers(n_checks: int) -> int:
    """Worker processes for a suite of ``n_checks`` checks; fewer than 2 means none."""
    import multiprocessing  # here, not at import: the pool's imports cost ~20 ms

    if multiprocessing.parent_process() is not None:
        return 1  # already a worker: never nest pools
    main_file = getattr(sys.modules["__main__"], "__file__", None)
    if main_file is not None and not os.path.isfile(main_file):
        return 1  # e.g. a script read from stdin, which a spawned process cannot re-import
    return min(_cpu_count(), n_checks)


@contextlib.contextmanager
def _worker_pool(workers: int):
    """Spawned worker processes, each with BLAS pinned to one thread.

    The workers share the CPUs; a BLAS thread pool in each would
    oversubscribe them.  ``os.environ`` is restored when the pool closes.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = {key: os.environ.get(key) for key in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _run_group(pool, workers: int, names: tuple, config: ExperimentConfig) -> list:
    """The outcomes of one stream group, its trials run in contiguous chunks, four per worker.

    ``pool`` runs the chunks in worker processes; ``None`` runs them here.
    The group's wall time is split between its checks by their seconds in
    the loop, so the checks' durations add up to it.
    """
    started = time.perf_counter()
    trials = n_trials(names[0], config)
    size = -(-trials // (_CHUNKS_PER_WORKER * workers))
    chunks = [range(lo, min(lo + size, trials)) for lo in range(0, trials, size)]
    run = map if pool is None else pool.map
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
    return _run_group(None, 1, (name,), config)[0]


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
    with _worker_pool(workers) if workers > 1 else contextlib.nullcontext() as pool:
        checks = [c for g in groups.values() for c in _run_group(pool, workers, tuple(g), config)]
    return ExperimentReport(
        config=config,
        checks=checks,
        duration_seconds=time.perf_counter() - started,
        passed=all(c.passed for c in checks),
    )


def replay_failure(bundle: dict) -> dict:
    """Re-run a serialized failure bundle; returns the recomputed residuals."""
    if not isinstance(bundle, dict) or "check" not in bundle or "inputs" not in bundle:
        raise InputError('failure bundle needs keys "check" and "inputs"')
    name = bundle["check"]
    if name not in CHECK_SPECS:
        raise InputError(f"unknown check {name!r}")
    if bundle.get("error") and not bundle["inputs"]:
        raise InputError(
            "bundle records a generation error; regenerate from its seed_derivation"
        )
    spec = CHECK_SPECS[name]
    inputs = spec.deserialize(bundle["inputs"])
    return spec.evaluate(**inputs)

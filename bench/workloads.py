"""The benchmark's workloads and the correctness checks inside every pass.

A workload is built once (its set-up) and then run in passes.  Each pass
returns a :class:`PassResult`; a pass counts only when its outputs check
out, and every failed operation is counted in ``failed``.

* ``acceptance`` -- ``seqmeas suite --out <tmp>`` on the built-in canonical
  configuration.  Its inputs are fixed by the package (seed 5137), so the
  benchmark seed does not change them.
* ``wide`` -- the same CLI call with ``--config`` pointing at
  :data:`WIDE_CONFIG`, at the largest dimensions configs allow.  The config
  seed is fixed too: with only a few trials per check, a seed-drawn mix of
  dimensions would move the pass time by more than any bound.
* ``replay`` -- failure bundles of the randomised checks' first
  :data:`REPLAY_TRIALS` trial streams under the canonical configuration,
  with the seed taken from the benchmark seed.  One operation writes a
  bundle (``serialize`` then ``json.dumps``) and replays it (``json.loads``
  then ``replay_failure``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from seqmeas import cli
from seqmeas import harness as hn

WORKLOADS = ("acceptance", "wide", "replay")

#: benchmark-owned suite configuration: d = 16, 32, 64 is the ceiling configs allow
WIDE_CONFIG = {"seed": hn.ACCEPTANCE_SEED, "dims": [16, 32, 64], "trials": 8}

#: trial streams replayed per randomised check (7 checks, so 700 bundles)
REPLAY_TRIALS = 100


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    op_s: list  # latency of each operation in the pass
    fingerprint: str  # SHA-256 of the duration-free outputs
    problems: list = field(default_factory=list)


def _gate_problems(check: dict) -> list:
    """Every way one check entry of a suite report fails its pinned gates."""
    problems = []
    name = check["name"]
    if not check["passed"]:
        problems.append(f"{name}: not passed")
    if check["failures"]:
        problems.append(f"{name}: {len(check['failures'])} failure bundles")
    for key, value in check["residual_maxima"].items():
        gate = check["tolerances"][key]
        # non-finite maxima are serialised as strings and fail here too
        if not (isinstance(value, (int, float)) and value <= gate):
            problems.append(f"{name}: {key} = {value} above gate {gate}")
    return problems


def report_fingerprint(report: dict) -> str:
    """SHA-256 of :meth:`ExperimentReport.fingerprint` rebuilt from a written report."""
    doc = dict(report)
    doc.pop("duration_seconds", None)
    doc["checks"] = [
        {k: v for k, v in check.items() if k != "duration_seconds"} for check in report["checks"]
    ]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class SuiteWorkload:
    """``seqmeas suite`` through :func:`seqmeas.cli.main`, in process.

    An operation is one trial.  Trials are not timed one by one from outside
    the package, so each trial's latency is its check's mean, the check's
    ``duration_seconds`` in the report over its trial count.
    """

    def __init__(self, workdir: Path, config: dict | None):
        self.report_path = workdir / "report.json"
        self.argv = ["suite", "--out", str(self.report_path)]
        if config is not None:
            config_path = workdir / "config.json"
            config_path.write_text(json.dumps(config))
            self.argv += ["--config", str(config_path)]

    def run_pass(self) -> PassResult:
        wall, cpu = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        report = json.loads(self.report_path.read_text())
        self.report_path.unlink()
        checks = report["checks"]
        problems = [] if code == 0 else [f"cli exit code {code}"]
        if not report["passed"]:
            problems.append("report not passed")
        if report["config"]["tol"] is not None:
            problems.append("tolerances overridden")
        # a check that misses any gate fails all its trials; a failed run fails every trial
        failed = 0
        for check in checks:
            check_problems = _gate_problems(check)
            failed += check["trials"] if check_problems else 0
            problems += check_problems
        attempted = sum(check["trials"] for check in checks)
        return PassResult(
            wall_s=wall,
            cpu_s=cpu,
            attempted=attempted,
            failed=attempted if code != 0 or not report["passed"] else failed,
            op_s=[
                check["duration_seconds"] / check["trials"]
                for check in checks
                for _ in range(check["trials"])
            ],
            fingerprint=report_fingerprint(report),
            problems=problems,
        )


def _bits(residuals: dict) -> dict:
    """Residuals keyed by name, as exact bit patterns."""
    return {key: float(value).hex() for key, value in residuals.items()}


@dataclass
class ReplayCase:
    check: str
    trial: int
    seed_derivation: list
    inputs: dict
    direct: dict  # bit patterns of the direct ``evaluate`` residuals


def write_bundle(case: ReplayCase) -> str:
    """The failure bundle ``run_check`` would write for this trial, as JSON text."""
    return json.dumps(
        {
            "check": case.check,
            "trial": case.trial,
            "inputs": hn.CHECK_SPECS[case.check].serialize(**case.inputs),
            "seed_derivation": case.seed_derivation,
        }
    )


def replay_bundle(text: str) -> dict:
    return hn.replay_failure(json.loads(text))


class ReplayWorkload:
    """Bundle write and replay for the first trial streams of each randomised check."""

    def __init__(self, seed: int):
        config = hn.ExperimentConfig.from_json({**hn.acceptance_config().to_json(), "seed": seed})
        self.cases = []
        for name in config.check_set:
            spec = hn.CHECK_SPECS[name]
            if spec.trial_fraction is None:
                continue
            stream = spec.rng_alias or name
            for trial in range(min(REPLAY_TRIALS, hn.n_trials(name, config))):
                inputs, _ = spec.generate(hn.trial_rng(config.seed, stream, trial), config, trial)
                self.cases.append(
                    ReplayCase(
                        check=name,
                        trial=trial,
                        seed_derivation=[config.seed, hn.CHECK_ORDER.index(stream), trial],
                        inputs=inputs,
                        direct=_bits(spec.evaluate(**inputs)),
                    )
                )

    def run_pass(self) -> PassResult:
        op_s = []
        replayed = []
        problems = []
        wall, cpu = time.perf_counter(), time.process_time()
        for case in self.cases:
            started = time.perf_counter()
            try:
                residuals, error = replay_bundle(write_bundle(case)), None
            except Exception as exc:  # a bundle that cannot be replayed is a failed operation
                residuals, error = None, f"{type(exc).__name__}: {exc}"
            op_s.append(time.perf_counter() - started)
            got = _bits(residuals) if error is None else {"error": error}
            if got != case.direct:
                problems.append(f"{case.check} trial {case.trial}: replay {got} != direct {case.direct}")
            replayed.append(got)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        digest = hashlib.sha256(json.dumps(replayed, sort_keys=True).encode()).hexdigest()
        return PassResult(
            wall_s=wall,
            cpu_s=cpu,
            attempted=len(self.cases),
            failed=len(problems),
            op_s=op_s,
            fingerprint=digest,
            problems=problems,
        )


def build(name: str, seed: int, workdir: Path):
    """The set-up of one workload."""
    if name == "acceptance":
        return SuiteWorkload(workdir, None)
    if name == "wide":
        return SuiteWorkload(workdir, WIDE_CONFIG)
    if name == "replay":
        return ReplayWorkload(seed % 2**64)
    raise ValueError(f"unknown workload {name!r}")

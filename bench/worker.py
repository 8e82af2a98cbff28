"""One workload process of the benchmark; ``run.py`` starts it.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload W --seed N --setup-only

It sets the workload up, prints the monotonic clock at the moment the first
timed operation could start (``ready``), and then, unless ``--setup-only``,
runs the workload.  Untraced, it runs passes for about ``--seconds``
seconds, at least two so the fingerprint can be compared, and reports the
end-to-end figures.  Traced, it runs untraced passes for a third of
``--seconds`` (at least one), then one pass with every layer wrapped, then
the kernel micro-benchmarks, and reports the per-layer figures.  The last
line of standard output is one JSON document.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import kernels
import tracing
import workloads
from seqmeas import harness as hn

#: the self times of a traced pass must add up to its wall time within this share
SELF_SUM_TOLERANCE = 0.01

_COUNTED = (
    "quantum.ProjectorFamily",
    "quantum.DensityOperator",
    "quantum.Unitary",
    "quantum.spectral_projectors",
    "entropy.relative_entropy",
    "numpy.eigh",
    "numpy.eigvalsh",
)
_SELF_ONLY = (
    "quantum.build_sequential_model",
    "quantum.luders_channel",
    "quantum.two_point_work_protocol",
    "quantum.dilation_analysis",
    "quantum.partial_trace",
    "stat_model.model_from_json",
    "entropy.von_neumann_entropy",
    "entropy.is_minimal_pair",
    "entropy.minimal_identity_check",
    "stat_model.validate_model",
    "stat_model.j_equation_residual",
    "stat_model.j_equation_reverse_residual",
    "stat_model.entropy_chain",
    "stat_model.minimal_x_tilde",
    "cli.main",
)


def unit_of(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith(".us"):
        return "us"
    if metric.endswith(".x_eigh"):
        return "ratio"
    if metric.endswith("_frac"):
        return "fraction"
    if metric.endswith("_mb"):
        return "MiB"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_ms_p50") or metric.endswith("_ms_p99"):
        return "ms"
    return "s"


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(lib for lib in libs if lib.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def machine_record() -> dict:
    cpu_model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(Path.cwd()),
        "seqmeas_seed_env": os.environ.get("SEQMEAS_SEED"),
    }


def measure(workload, seconds: float, min_passes: int) -> list:
    """Passes until the next one would end after ``seconds``, and at least ``min_passes``."""
    passes = []
    started = time.perf_counter()
    while len(passes) < min_passes or (
        time.perf_counter() - started + passes[-1].wall_s <= seconds
    ):
        passes.append(workload.run_pass())
    return passes


def tally(passes: list, reference: str) -> tuple:
    """(attempted, failed, problems); a pass whose fingerprint differs fails whole."""
    attempted = failed = 0
    problems = []
    for p in passes:
        attempted += p.attempted
        if p.fingerprint != reference:
            failed += p.attempted
            problems.append(f"fingerprint {p.fingerprint} differs from {reference}")
        else:
            failed += p.failed
        problems += p.problems
    return attempted, failed, problems


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(passes: list) -> dict:
    wall = statistics.median(p.wall_s for p in passes)
    return {
        "wall_s": wall,
        "throughput_per_s": passes[0].attempted / wall,
        "op_ms_p50": statistics.median(percentile(p.op_s, 0.50) for p in passes) * 1e3,
        "op_ms_p99": statistics.median(percentile(p.op_s, 0.99) for p in passes) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: tracing.Tracer) -> dict:
    """The per-layer figures of one traced pass."""
    metrics = {}
    for label in _COUNTED:
        metrics[f"{label}.calls"] = tracer.calls(label)
        metrics[f"{label}.self_s"] = tracer.self_s(label)
    for label in _SELF_ONLY:
        metrics[f"{label}.self_s"] = tracer.self_s(label)
    metrics["quantum.from_json.self_s"] = sum(
        (
            tracer.self_s(label)
            for label in tracer.stats
            if label.startswith("quantum.") and label.endswith("_from_json")
        ),
        0.0,
    )
    metrics["harness.serialize_s"] = tracer.total_s("harness.serialize")
    metrics["harness.replay_failure_s"] = tracer.total_s("harness.replay_failure")
    for check in hn.CHECK_ORDER:
        metrics[f"harness.{check}.s"] = tracer.total_s(f"harness.{check}")
        metrics[f"harness.{check}.generate_s"] = tracer.total_s(f"harness.{check}.generate")
        metrics[f"harness.{check}.evaluate_s"] = tracer.total_s(f"harness.{check}.evaluate")
    return metrics


def traced_run(workload, seconds: float, seed: int) -> tuple:
    """(metrics, attempted, failed, problems, details) of a traced run."""
    untraced = measure(workload, seconds / 3, min_passes=1)
    reference = untraced[0].fingerprint
    before = tracing.snapshot()
    tracer = tracing.Tracer()
    root = tracer.wrap("bench.pass", workload.run_pass)
    with tracing.traced(tracer):
        started = time.perf_counter()
        traced_pass = root()
        traced_wall = time.perf_counter() - started
    attempted, failed, problems = tally(untraced + [traced_pass], reference)

    after = tracing.snapshot()
    if before.keys() != after.keys() or any(before[k] is not after[k] for k in before):
        problems.append("tracing left a wrapped object behind")
    self_sum = tracer.self_sum_s()
    if abs(self_sum - traced_wall) > SELF_SUM_TOLERANCE * traced_wall:
        problems.append(f"self times sum to {self_sum} s, traced wall time is {traced_wall} s")

    wall = statistics.median(p.wall_s for p in untraced)
    metrics = per_layer(tracer)
    metrics["process.wall_s"] = wall
    metrics["process.cpu_s"] = statistics.median(p.cpu_s for p in untraced)
    metrics["trace.overhead_frac"] = traced_pass.wall_s / wall - 1.0
    metrics.update(kernels.run(seed))
    metrics["failed_frac"] = failed / attempted
    details = {
        "untraced_passes": len(untraced),
        "traced_wall_s": traced_wall,
        "self_sum_s": self_sum,
        "fingerprint_sha256": reference,
    }
    return metrics, attempted, failed, problems, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = Path(".bench_tmp") / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        ready = time.monotonic()
        doc = {"ready": ready}
        if not args.setup_only:
            if args.trace:
                metrics, attempted, failed, problems, details = traced_run(
                    workload, args.seconds, args.seed
                )
            else:
                passes = measure(workload, args.seconds, min_passes=2)
                reference = passes[0].fingerprint
                attempted, failed, problems = tally(passes, reference)
                metrics = end_to_end(passes)
                details = {
                    "passes": len(passes),
                    "pass_wall_s": [p.wall_s for p in passes],
                    "fingerprint_sha256": reference,
                }
            doc.update(
                metrics={k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
                attempted=attempted,
                failed=failed,
                problems=problems[:20],
                details=details,
                machine=machine_record(),
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

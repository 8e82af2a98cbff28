"""seqmeas benchmark: end-to-end and per-layer figures for one workload.

Run from the root of a checkout:

    python3 bench/run.py --workload acceptance|wide|replay --seed N \\
        --seconds S --trace 0|1

Each run starts fresh workload processes (``bench/worker.py``) with
``src`` on ``PYTHONPATH`` and ``SEQMEAS_SEED`` removed from their
environment, because that variable overrides the configured seed.
Untraced (``--trace 0``) it first sets the workload up in
:data:`SETUP_PROBES` processes that stop at the first timed operation, then
runs the measuring process; ``setup_s`` is the median, over all of them, of
the time from process start to the first timed operation.  Traced
(``--trace 1``) it runs one process that reports the per-layer figures.

Standard output ends with two JSON lines: the run record (machine, passes,
fingerprint, any problems) and the result, ``{"correct", "attempted",
"failed", "metrics"}``.  Exits 2 without a result when the package source is
missing or a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: set-up-only processes per untraced run, besides the measuring process
SETUP_PROBES = 4
#: no workload process may run longer than this
PROCESS_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("SEQMEAS_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def _spawn(args: list, timeout: float) -> dict:
    """Run one worker; its last output line, plus ``setup_s`` from process start."""
    worker = Path(__file__).with_name("worker.py")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(worker), *args],
            env=_worker_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}:\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["setup_s"] = doc["ready"] - started
    return doc


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(record, result) of one benchmark run."""
    common = ["--workload", workload, "--seed", str(seed)]
    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setup.append(_spawn(common + ["--setup-only"], deadline - time.monotonic())["setup_s"])
    doc = _spawn(
        common + ["--seconds", str(seconds), "--trace", str(trace)], deadline - time.monotonic()
    )
    metrics = doc["metrics"]
    if not trace:
        setup.append(doc["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "setup_samples_s": setup,
        "machine": doc["machine"],
        "details": doc["details"],
        "problems": doc["problems"],
    }
    result = {
        "correct": doc["failed"] == 0 and not doc["problems"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="seqmeas benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/seqmeas/__init__.py").is_file():
        print("error: run from the root of a seqmeas checkout (src/seqmeas is missing)", file=sys.stderr)
        return 2
    try:
        record, result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

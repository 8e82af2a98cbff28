"""The golden files of ``tests/golden/``: the runs behind them and their text.

Each file is a fixed run's JSON output, pretty-printed one value per line, so
that a moved value shows as a one-line diff.  Python's float repr round-trips
exactly, and each file re-serialised the way the run's digest was once taken
(compact, keys sorted except in the fixed-instance file) gives that digest's
bytes, so the text is as strict as a digest.

The tests compare a fresh run with each file and never write one.  After a
deliberate change of bits, regenerate the files and commit their diff::

    PYTHONPATH=src python tests/golden_files.py
"""

import contextlib
import dataclasses
import difflib
import json
from pathlib import Path

import seqmeas.harness as hn
import seqmeas.quantum as qm

GOLDEN = Path(__file__).parent / "golden"


def text(doc, sort_keys: bool = True) -> str:
    """A golden file's text: ``doc`` as JSON, one value per line."""
    return json.dumps(doc, sort_keys=sort_keys, indent=1) + "\n"


def suite_report() -> hn.ExperimentReport:
    """The seed-21 suite, each check run in process by ``run_check``."""
    config = hn.ExperimentConfig(seed=21, dims=(2, 3, 5, 16), trials=40)
    checks = [hn.run_check(name, config) for name in hn.CHECK_ORDER]
    return hn.ExperimentReport(config, checks, 0.0, all(c.passed for c in checks))


def failure_bundles() -> list:
    """Every check's failure bundles at ``tol=1e-300``, where almost every trial fails."""
    config = hn.ExperimentConfig(seed=5, dims=(2, 3), trials=20, tol=1e-300)
    return [f for name in hn.CHECK_ORDER for f in hn.run_check(name, config).failures]


@contextlib.contextmanager
def failing_fixed_instance():
    """Dilation's fixed instance made to fail, by a ``swap_chain_violation`` of 1."""
    spec = hn.CHECK_SPECS["dilation"]

    @qm._one_at_a_time
    def failing_fixed():
        return {**(yield from spec.fixed.steps()), "swap_chain_violation": 1.0}

    hn.CHECK_SPECS["dilation"] = dataclasses.replace(spec, fixed=failing_fixed)
    try:
        yield
    finally:
        hn.CHECK_SPECS["dilation"] = spec


def fixed_instance_bundles() -> list:
    """A dilation run's failures at ``tol=1e-300``; call it in ``failing_fixed_instance()``."""
    config = hn.ExperimentConfig(seed=5, dims=(2, 3), trials=20, tol=1e-300)
    return hn.run_check("dilation", config).failures


def _fixed_instance_text() -> str:
    with failing_fixed_instance():
        # insertion order: the bundles' key order is part of their bytes
        return text(fixed_instance_bundles(), sort_keys=False)


#: each golden file's name and the fresh text it must hold
TEXTS = {
    "suite_fingerprint.json": lambda: text(json.loads(suite_report().fingerprint())),
    "failure_bundles.json": lambda: text(failure_bundles()),
    "fixed_instance_bundles.json": _fixed_instance_text,
}


def diff(name: str, fresh: str, lines: int = 40) -> str:
    """The first ``lines`` lines of the unified diff from golden file ``name`` to ``fresh``;
    empty when they are equal."""
    golden = (GOLDEN / name).read_text()
    if golden == fresh:
        return ""
    out = difflib.unified_diff(golden.splitlines(), fresh.splitlines(), name, "fresh run",
                               n=1, lineterm="")
    return "\n".join(line for line, _ in zip(out, range(lines)))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, make in TEXTS.items():
        (GOLDEN / name).write_text(make())
        print(f"wrote {GOLDEN / name}")

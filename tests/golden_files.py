"""The golden files of ``tests/golden/``: the runs behind them and their text.

Each file is a fixed run's JSON output, pretty-printed one value per line, so
that a moved value shows as a one-line diff.  Python's float repr round-trips
exactly, and each file re-serialised the way the run's digest was once taken
(compact, keys sorted except in the fixed-instance file) gives that digest's
bytes, so the text is as strict as a digest.

The tests compare a fresh run with each file and never write one.  After a
deliberate change of bits, list what moved, then regenerate the files and
commit their diff::

    PYTHONPATH=src python tests/golden_files.py --moves
    PYTHONPATH=src python tests/golden_files.py

``--moves`` writes nothing.  It prints each number that changed with its move
in units of eps and in ulps of the old value (``math.ulp``), and each group of
values that a fresh run gained or lost.
"""

import contextlib
import dataclasses
import difflib
import json
import math
import sys
from collections import Counter
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


EPS = 2.0**-52


def leaves(doc, path: str = "") -> dict:
    """Every leaf value of a JSON document by its path.  A list entry that names a check is
    keyed by it: a bundle by ``check#trial``, an outcome by ``name``, the rest by index."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = ((f"{v['check']}#{v['trial']}" if isinstance(v, dict) and "trial" in v
                  else v["name"] if isinstance(v, dict) and "name" in v else k, v)
                 for k, v in enumerate(doc))
    else:
        return {path: doc}
    out = {}
    for key, value in items:
        out.update(leaves(value, f"{path}/{key}"))
    return out


def _group(path: str, present: set) -> str:
    """The shortest prefix of ``path``, of one to three components, absent from ``present``;
    else its first three components."""
    parts = path.split("/")
    prefixes = ["/".join(parts[:n]) for n in range(2, 5)]
    return next((p for p in prefixes if p not in present), prefixes[-1])


def moves(name: str, fresh: str) -> list:
    """Lines naming what moved from golden file ``name`` to the ``fresh`` text: each changed
    leaf, numbers with their move in eps and in ulps of the old value, then the values
    gained or lost, counted per group (a whole bundle, or a key of one)."""
    old, new = leaves(json.loads((GOLDEN / name).read_text())), leaves(json.loads(fresh))
    lines = []
    for path in sorted(old.keys() & new.keys()):
        a, b = old[path], new[path]
        if a == b and type(a) is type(b):
            continue
        numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
        move = f" ({(b - a) / EPS:+.1f} eps, {(b - a) / math.ulp(a):+.4g} ulp)" if numbers else ""
        lines.append(f"{path}: {a!r} -> {b!r}{move}")
    for sign, mine, other in (("-", old, new), ("+", new, old)):
        present = {"/".join(p.split("/")[:n]) for p in other for n in range(2, 5)}
        groups = Counter(_group(p, present) for p in mine.keys() - other.keys())
        lines += [f"{sign} {group} ({count} values)" for group, count in sorted(groups.items())]
    return lines


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, make in TEXTS.items():
        if sys.argv[1:] == ["--moves"]:
            print(f"{name}:", *moves(name, make()) or ["unchanged"], sep="\n  ")
        else:
            (GOLDEN / name).write_text(make())
            print(f"wrote {GOLDEN / name}")

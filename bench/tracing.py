"""Span tracing of seqmeas from outside the package.

:func:`traced` wraps, for the duration of a ``with`` block, every public
function and every dataclass ``__post_init__`` (the constructor's
validation) of ``cli``, ``harness``, ``quantum``, ``entropy`` and
``stat_model``, plus ``numpy.linalg.eigh`` / ``eigvalsh`` and the
``generate`` / ``evaluate`` / ``serialize`` stages of every registered check.
Each name a module imported from another one (``entropy`` imports
``spectral_projectors`` by name, for instance) is rebound too, so a call is
traced whichever binding it goes through.  The originals are put back in a
``finally``, whatever the block raises.

Spans are aggregated as they close: per label, the call count, the total
(inclusive) time and the self time, i.e. the span minus the time covered by
its child spans.  The self times of all labels therefore add up to the time
of the outermost spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import time

import numpy as np

import seqmeas
from seqmeas import cli, entropy, harness, quantum, stat_model

#: the traced layers, by the short name used in metric labels
LAYERS = {
    "cli": cli,
    "harness": harness,
    "quantum": quantum,
    "entropy": entropy,
    "stat_model": stat_model,
}

#: every namespace that may hold a second binding of a traced function
_NAMESPACES = (seqmeas, *LAYERS.values())


class Tracer:
    """Aggregated spans: ``stats[label] = [calls, total_s, self_s]``."""

    def __init__(self):
        self.stats: dict = {}
        self._open: list = []  # time covered by children, one entry per open span

    def wrap(self, label, fn):
        """``fn`` recorded under ``label`` (a string, or a function of the call's arguments)."""
        stats = self.stats
        open_spans = self._open

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            open_spans.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += span
                name = label if isinstance(label, str) else label(*args, **kwargs)
                rec = stats.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += span
                rec[2] += span - children

        return traced_call

    def calls(self, label) -> int:
        return self.stats.get(label, [0, 0.0, 0.0])[0]

    def total_s(self, label) -> float:
        return self.stats.get(label, [0, 0.0, 0.0])[1]

    def self_s(self, label) -> float:
        return self.stats.get(label, [0, 0.0, 0.0])[2]

    def self_sum_s(self) -> float:
        return sum(rec[2] for rec in self.stats.values())


def _run_check_label(name, *args, **kwargs):
    return f"harness.{name}"


def _patch_plan(tracer: Tracer) -> list:
    """(owner, attribute, replacement) for every binding to trace."""
    plan = []
    wrappers = {}  # id(original function) -> wrapper
    for short, module in LAYERS.items():
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                label = _run_check_label if obj is harness.run_check else f"{short}.{name}"
                wrappers[id(obj)] = tracer.wrap(label, obj)
            elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                plan.append(
                    (obj, "__post_init__", tracer.wrap(f"{short}.{name}", vars(obj)["__post_init__"]))
                )
    for namespace in _NAMESPACES:
        for name, obj in vars(namespace).items():
            if inspect.isfunction(obj) and id(obj) in wrappers:
                plan.append((namespace, name, wrappers[id(obj)]))
    for name in ("eigh", "eigvalsh"):
        plan.append((np.linalg, name, tracer.wrap(f"numpy.{name}", getattr(np.linalg, name))))
    return plan


def _traced_specs(tracer: Tracer) -> dict:
    specs = {}
    for name, spec in harness.CHECK_SPECS.items():
        specs[name] = dataclasses.replace(
            spec,
            generate=tracer.wrap(f"harness.{name}.generate", spec.generate),
            evaluate=tracer.wrap(f"harness.{name}.evaluate", spec.evaluate),
            serialize=tracer.wrap("harness.serialize", spec.serialize),
        )
    return specs


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the block and restore every original after it."""
    plan = _patch_plan(tracer)
    specs = _traced_specs(tracer)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in plan]
    original_specs = dict(harness.CHECK_SPECS)
    try:
        for owner, attr, replacement in plan:
            setattr(owner, attr, replacement)
        harness.CHECK_SPECS.update(specs)
        yield tracer
    finally:
        harness.CHECK_SPECS.update(original_specs)
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def snapshot() -> dict:
    """Identity of every object :func:`traced` replaces, to prove the restore."""
    tracer = Tracer()
    snap = {(id(owner), attr): vars(owner)[attr] for owner, attr, _ in _patch_plan(tracer)}
    snap.update({("CHECK_SPECS", name): spec for name, spec in harness.CHECK_SPECS.items()})
    return snap

"""Smoke test of the benchmark itself, at tiny trial counts.

    python -m pytest -q bench/smoke.py

The file name keeps it out of the package's own test collection.
"""

import hashlib
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import kernels  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from seqmeas import entropy as ent  # noqa: E402
from seqmeas import harness as hn  # noqa: E402
from seqmeas import quantum as qm  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = hn.ExperimentConfig(trials=4)

#: the per-layer figures the benchmark was defined to report
REQUIRED_LAYER = {
    *(f"{label}.{kind}" for label in (
        "quantum.ProjectorFamily", "quantum.DensityOperator", "quantum.Unitary",
        "quantum.spectral_projectors", "entropy.relative_entropy", "numpy.eigh", "numpy.eigvalsh",
    ) for kind in ("calls", "self_s")),
    *(f"{label}.self_s" for label in (
        "quantum.build_sequential_model", "quantum.luders_channel",
        "quantum.two_point_work_protocol", "quantum.dilation_analysis", "quantum.partial_trace",
        "quantum.from_json", "stat_model.model_from_json", "entropy.von_neumann_entropy",
        "entropy.is_minimal_pair", "entropy.minimal_identity_check", "stat_model.validate_model",
        "stat_model.j_equation_residual", "stat_model.j_equation_reverse_residual",
        "stat_model.entropy_chain", "stat_model.minimal_x_tilde", "cli.main",
    )),
    *(f"harness.{check}.{stage}" for check in hn.CHECK_ORDER for stage in ("s", "generate_s", "evaluate_s")),
    "harness.serialize_s", "harness.replay_failure_s", "process.cpu_s", "trace.overhead_frac",
    *(f"kernel.eigh.d{d}.us" for d in kernels.DIMS),
    *(f"kernel.{k}.d{d}.x_eigh" for k in kernels.KERNELS for d in kernels.DIMS),
}
REQUIRED_END_TO_END = {"setup_s", "wall_s", "throughput_per_s", "op_ms_p50", "op_ms_p99", "peak_rss_mb"}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Every workload shrunk to a few trials, run inside a scratch directory."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(hn, "acceptance_config", lambda: TINY)
    monkeypatch.setattr(workloads, "WIDE_CONFIG", {**workloads.WIDE_CONFIG, "dims": [16], "trials": 2})
    monkeypatch.setattr(workloads, "REPLAY_TRIALS", 3)
    monkeypatch.setattr(kernels, "_BUDGET_S", 1e-4)
    monkeypatch.setattr(kernels, "_EIGH_BUDGET_S", 1e-4)
    monkeypatch.setattr(kernels, "_MIN_SAMPLES", 1)
    return tmp_path


def _names(section):
    return {m["name"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_is_reported(tiny, name):
    workload = workloads.build(name, 7, tiny)
    passes = worker.measure(workload, 0.0, min_passes=2)
    attempted, failed, problems = worker.tally(passes, passes[0].fingerprint)
    assert (failed, problems) == (0, [])
    assert attempted > 0
    assert set(worker.end_to_end(passes)) | {"setup_s"} == _names("end_to_end")
    assert REQUIRED_END_TO_END <= _names("end_to_end")

    metrics, attempted, failed, problems, _ = worker.traced_run(workload, 0.0, 7)
    assert (failed, problems) == (0, [])
    assert set(metrics) == _names("per_layer")
    assert REQUIRED_LAYER <= _names("per_layer")
    assert metrics["failed_frac"] == 0.0
    assert all(metrics[f"kernel.{k}.d{d}.x_eigh"] > 0 for k in kernels.KERNELS for d in kernels.DIMS)


def test_tracing_restores_every_original():
    before = tracing.snapshot()
    originals = (qm.spectral_projectors, ent.spectral_projectors, hn.CHECK_SPECS["klein"])
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracer):
            # both bindings of a name imported across modules are wrapped
            assert qm.spectral_projectors is not originals[0]
            assert ent.spectral_projectors is not originals[1]
            assert hn.CHECK_SPECS["klein"] is not originals[2]
            hn.run_check("klein", TINY)
            raise RuntimeError("abort inside the traced block")
    after = tracing.snapshot()
    assert before.keys() == after.keys()
    assert all(before[key] is after[key] for key in before)
    assert (qm.spectral_projectors, ent.spectral_projectors, hn.CHECK_SPECS["klein"]) == originals
    assert tracer.calls("harness.klein") == 1
    assert tracer.calls("quantum.spectral_projectors") > 0
    assert tracer.self_sum_s() == pytest.approx(tracer.total_s("harness.klein"), rel=1e-9)


def test_corrupted_bundle_counts_as_failed(tiny, monkeypatch):
    workload = workloads.build("replay", 7, tiny)
    target = workload.cases[0]
    clean = workloads.write_bundle

    def corrupted(case):
        text = clean(case)
        if case is not target:
            return text
        bundle = json.loads(text)
        bundle["inputs"]["model"]["x_tilde"][0] *= 1.5
        return json.dumps(bundle)

    monkeypatch.setattr(workloads, "write_bundle", corrupted)
    passes = worker.measure(workload, 0.0, min_passes=1)
    attempted, failed, problems = worker.tally(passes, passes[0].fingerprint)
    assert target.check == "jcheck"
    assert (attempted, failed) == (len(workload.cases), 1)
    assert len(problems) == 1 and "jcheck trial 0" in problems[0]


def test_report_fingerprint_matches_the_package():
    report = hn.run_suite(TINY)
    written = json.loads(json.dumps(report.to_json()))
    expected = hashlib.sha256(report.fingerprint().encode()).hexdigest()
    assert workloads.report_fingerprint(written) == expected


def test_refuses_to_run_without_the_package_source(tmp_path, monkeypatch, capsys):
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "replay", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""

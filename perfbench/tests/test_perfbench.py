"""Tests of the benchmark itself, on tiny scenarios (n=32).

Run with ``PYTHONPATH=src python -m pytest perfbench/tests`` from the
repository root.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import bench, tracer  # noqa: E402
from perfbench.workloads import OperatorWorkload, TrialWorkload  # noqa: E402

TINY = {"n": 32, "shape": "disc:measure=8", "count": 4, "trials": 34}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: End-to-end figures printed beside the gated ones, per workload kind.
REPORTED = {
    "trials": ["wall_s", "probe_ms", "trials_per_s", "trial_ms_p50", "trial_ms_p90",
               "failed_frac", "check_failures", "success_rate_r5"],
    "operator": ["wall_s", "probe_ms", "failed_frac", "check_failures", "oracle_gap"],
}


def tiny_workloads() -> dict:
    return {
        "figure1": TrialWorkload("figure1", threads=1, overrides=TINY, setup_samples=1),
        "ksweep": TrialWorkload(
            "ksweep", threads=2, overrides=TINY, sweep_k=(4, 8),
            replay=((0, 0), (1, 1)), setup_samples=1,
        ),
        "operator512": OperatorWorkload(
            "operator512", n=32, oracle_tol=1e-2, shape="disc:measure=8", setup_samples=1
        ),
    }


@pytest.fixture(scope="module")
def reference_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("reference")
    for workload in tiny_workloads().values():
        bench.write_reference(workload, path)
    return path


def _run(name, reference_dir, results_dir, capsys, seed=7, trace=0):
    code = bench.run_benchmark(
        tiny_workloads()[name], seed, 0.0, trace,
        reference_dir=reference_dir, results_dir=results_dir,
    )
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


def _metric_line(out: str, name: str) -> str:
    lines = [line for line in out.splitlines() if line.startswith(f"metric {name} = ")]
    assert len(lines) == 1, f"{name} printed {len(lines)} times"
    return lines[0]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["figure1", "ksweep", "operator512"])
def test_smoke_prints_every_metric_with_its_unit(name, trace, reference_dir, tmp_path, capsys):
    code, out, result = _run(name, reference_dir, tmp_path, capsys, seed=7 if trace else 3,
                             trace=trace)
    assert code == 0, out
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    gated = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in gated}
    for metric in gated:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        line = _metric_line(out, metric["name"])
        assert line.split(" = ")[1].split()[1] == metric["unit"]
    if not trace:
        for metric in REPORTED[tiny_workloads()[name].kind]:
            assert _metric_line(out, metric).split(" = ")[1].split()[1] == bench.REPORT_UNITS[metric]
    record = json.loads((tmp_path / f"{name}-seed{7 if trace else 3}-trace{trace}.json").read_text())
    for key in ("nproc", "cpu_model", "blas", "python", "numpy", "scipy", "git_commit",
                "seed", "pool_threads"):
        assert key in record["run"]


def test_traced_trials_are_covered_by_layer_spans(reference_dir, tmp_path, capsys):
    _, out, result = _run("figure1", reference_dir, tmp_path, capsys, trace=1)
    # at n=32 a trial's own bookkeeping is a visible share; at n=256 the
    # five layers cover over 99 % of it
    assert result["metrics"]["trace.trial_coverage"]["value"] >= 0.5, out
    assert result["metrics"]["maskgeom.error_report.calls"]["value"] == TINY["trials"]
    assert result["metrics"]["locop.theta.calls"]["value"] == 0


def test_flipped_estimate_cell_fails_the_run(reference_dir, tmp_path, capsys, monkeypatch):
    from maskrec import estimator

    original = estimator.estimate_mask

    def flipped(avg):
        est = original(avg)
        cells = est.cells.copy()
        cells[0, 0] = ~cells[0, 0]
        return dataclasses.replace(est, cells=cells)

    monkeypatch.setattr(estimator, "estimate_mask", flipped)
    code, out, result = _run("figure1", reference_dir, tmp_path, capsys)
    assert code != 0
    assert result["correct"] is False
    assert "check FAIL reference.replay_mask[0:0]" in out
    assert "check FAIL reference.record" in out


def test_corrupted_eigenvalue_fails_the_run(reference_dir, tmp_path, capsys, monkeypatch):
    from maskrec import locop

    original = locop.spectrum

    def corrupted(H, omega):
        spec = original(H, omega)
        values = spec.eigenvalues.copy()
        values[3] *= 1.0 - 1e-9
        return dataclasses.replace(spec, eigenvalues=values)

    monkeypatch.setattr(locop, "spectrum", corrupted)
    code, out, result = _run("operator512", reference_dir, tmp_path, capsys)
    assert code != 0
    assert result["correct"] is False
    assert "check FAIL reference.record: mismatch in eigenvalues" in out


def _wrapped_attributes() -> dict:
    return {
        (module, attr): getattr(importlib.import_module(f"maskrec.{module}"), attr)
        for module, attr, _, _ in tracer.SITES
    }


def test_traced_run_restores_every_wrapped_attribute(reference_dir, tmp_path, capsys):
    before = _wrapped_attributes()
    code, out, _ = _run("ksweep", reference_dir, tmp_path, capsys, trace=1)
    assert code == 0, out
    after = _wrapped_attributes()
    assert all(after[key] is before[key] for key in before)

    with pytest.raises(RuntimeError):
        with tracer.installed(tracer.Tracer()):
            assert all(_wrapped_attributes()[key] is not before[key] for key in before)
            raise RuntimeError("raised inside the traced block")
    after = _wrapped_attributes()
    assert all(after[key] is before[key] for key in before)


def test_self_time_subtracts_the_union_of_child_spans():
    parent = tracer.Span(0, "p", None, None, start=0.0, end=1.0)
    children = [
        tracer.Span(1, "a", 0, None, start=0.1, end=0.4),
        tracer.Span(2, "b", 0, None, start=0.3, end=0.5),  # overlaps a
        tracer.Span(3, "c", 0, None, start=0.9, end=1.2),  # runs past the parent
    ]
    assert tracer._covered_ms(parent, children) == pytest.approx(500.0)
    metrics = tracer.layer_metrics([parent] + children, reps=1)
    assert metrics["tfcore.make_window.calls"] == 0


def test_mask_digest_sees_one_cell():
    cells = np.zeros((32, 32), dtype=bool)
    flipped = cells.copy()
    flipped[31, 31] = True
    assert tracer.mask_digest(cells) != tracer.mask_digest(flipped)


def test_exits_nonzero_without_printing_when_the_program_is_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figure1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Spans around calls into maskrec's public functions, recorded from outside.

The harness looks its collaborators up as module attributes at call time
(``noise.sample_noise``, ``maskgeom.error_report``, its own ``run_trial``
and the ``make_mask``/``make_window`` names it imported), so a wrapper is
installed at every attribute in :data:`SITES` and the originals are put back
when :func:`installed` exits.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

#: Relative distance to the quarter-max threshold that counts a cell as fragile.
NEAR_THRESHOLD_REL = 1e-12


def _realizations(args, kwargs, result) -> dict:
    return {"realizations": result.count}


def _estimate_attrs(args, kwargs, result) -> dict:
    avg = args[0] if args else kwargs["avg"]
    near = np.abs(avg.rho - result.threshold) <= NEAR_THRESHOLD_REL * result.threshold
    return {"near_cells": int(np.count_nonzero(near)), "mask": mask_digest(result.cells)}


#: (module, attribute, span name, hook adding attributes from the result).
SITES = (
    ("tfcore", "make_window", "tfcore.make_window", None),
    ("harness", "make_window", "tfcore.make_window", None),
    ("maskgeom", "make_mask", "maskgeom.make_mask", None),
    ("harness", "make_mask", "maskgeom.make_mask", None),
    ("maskgeom", "error_report", "maskgeom.error_report", None),
    ("locop", "assemble_locop", "locop.assemble_locop", None),
    ("locop", "spectrum", "locop.spectrum", None),
    ("locop", "theta", "locop.theta", None),
    ("noise", "sample_noise", "noise.sample_noise", _realizations),
    ("noise", "filter_batch", "noise.filter_batch", None),
    ("estimator", "average_spectrogram", "estimator.average_spectrogram", _realizations),
    ("estimator", "estimate_mask", "estimator.estimate_mask", _estimate_attrs),
    ("harness", "build_pipeline", "harness.build_pipeline", None),
    ("harness", "run_trials", "harness.run_trials", None),
    ("harness", "run_trial", "harness.run_trial", None),
    ("harness", "run_simulate", "harness.run_simulate", None),
    ("harness", "run_sweep", "harness.run_sweep", None),
)

#: Spans whose pool workers start with an empty stack take this span as parent.
_POOL_ROOT = "harness.run_trials"
_TRIAL = "harness.run_trial"
_TRIAL_LAYERS = (
    "noise.sample_noise",
    "noise.filter_batch",
    "estimator.average_spectrogram",
    "estimator.estimate_mask",
    "maskgeom.error_report",
)


def mask_digest(cells: np.ndarray) -> str:
    """SHA-256 of a boolean mask, bit-packed in row-major order."""
    return hashlib.sha256(np.packbits(np.asarray(cells, dtype=bool))).hexdigest()


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    trial: str | None
    start: float
    end: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """In-memory span recorder; thread-safe across the harness's trial pool."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pool_root: Span | None = None
        self._scenarios: dict = {}

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str, args) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._pool_root
        trial = parent.trial if parent is not None else None
        parent_id = parent.span_id if parent is not None else None
        with self._lock:
            if name == _TRIAL:
                # a trial is its scenario's ordinal (order of first trial) and its index
                pipeline, index = args[0], args[1]
                scenario_no = self._scenarios.setdefault(pipeline.scenario, len(self._scenarios))
                trial = f"{scenario_no}:{index}"
            span = Span(len(self.spans), name, parent_id, trial, 0.0)
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` recording one span per call under ``name``."""

        def traced(*args, **kwargs):
            span = self._open(name, args)
            outer_root = self._pool_root
            if name == _POOL_ROOT:
                self._pool_root = span
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                self._close(span)
                if name == _POOL_ROOT:
                    self._pool_root = outer_root
            if hook is not None:
                span.attrs.update(hook(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def trial_masks(self) -> dict[str, str]:
        """Mask digest of every traced estimate, keyed by trial identifier."""
        return {
            s.trial: s.attrs["mask"]
            for s in self.spans
            if s.name == "estimator.estimate_mask" and "mask" in s.attrs
        }

    def dump(self, path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


@contextmanager
def installed(tracer: Tracer):
    """Install ``tracer``'s wrappers at every site; restore the originals on exit."""
    saved = []
    try:
        for module_name, attr, name, hook in SITES:
            module = importlib.import_module(f"maskrec.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _covered_ms(span: Span, children: list[Span]) -> float:
    """Length of the part of ``span`` that the union of ``children`` covers."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, cursor), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered * 1e3


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[Span], reps: int) -> dict[str, float]:
    """Per-layer figures from the spans of ``reps`` traced workload repetitions.

    Totals and counts are per repetition; ``ms``/``ms_p50``/``ms_p90`` are
    per-call percentiles; ``self_ms`` is a span's duration minus what its
    child spans cover, summed per repetition.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)

    def self_ms(name: str) -> float:
        return sum(s.ms - _covered_ms(s, children[s.span_id]) for s in by_name[name]) / reps

    metrics: dict[str, float] = {}
    for name in dict.fromkeys(site[2] for site in SITES):
        calls = by_name[name]
        ms = [s.ms for s in calls]
        metrics[f"{name}.calls"] = len(calls) / reps
        metrics[f"{name}.errors"] = sum(s.error for s in calls) / reps
        metrics[f"{name}.ms_total"] = sum(ms) / reps
        metrics[f"{name}.ms_p50"] = metrics[f"{name}.ms"] = _percentile(ms, 50)
        metrics[f"{name}.ms_p90"] = _percentile(ms, 90)
        metrics[f"{name}.self_ms"] = self_ms(name)
        metrics[f"{name}.realizations"] = (
            sum(s.attrs.get("realizations", 0) for s in calls) / reps
        )
    metrics["estimator.threshold_near_cells"] = (
        sum(s.attrs.get("near_cells", 0) for s in by_name["estimator.estimate_mask"]) / reps
    )
    metrics["harness.output.self_ms"] = (
        metrics["harness.run_simulate.self_ms"] + metrics["harness.run_sweep.self_ms"]
    )
    trials = by_name[_TRIAL]
    trial_ms = sum(s.ms for s in trials)
    layer_ms = sum(
        _covered_ms(s, [c for c in children[s.span_id] if c.name in _TRIAL_LAYERS])
        for s in trials
    )
    metrics["trace.trial_coverage"] = layer_ms / trial_ms if trial_ms else 0.0
    return metrics

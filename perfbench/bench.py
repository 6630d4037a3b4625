"""Benchmark driver: set-up, timed repetitions, output checks, traced run, report.

End-to-end metrics come from untraced repetitions (``--trace 0``); the
per-layer metrics come from a separate run (``--trace 1``) that alternates
untraced and traced repetitions, so the tracing overhead is measured too.
The names and units of the metrics a run must print are read from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np
from scipy.ndimage import distance_transform_edt

from . import BLAS_ENV
from .checks import Check, compare
from .tracer import Tracer, installed, layer_metrics
from .workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
RESULTS_DIR = BENCH_DIR / "results"

#: A p90 has ten samples beyond it from 100 samples on.
MIN_TRIAL_SAMPLES = 100
#: ``wall_s`` is the best of at least this many repetitions.
MIN_REPS = 3
#: Per-layer figures are averaged over at least this many traced repetitions.
MIN_TRACED_REPS = 2
#: Stop repeating this long after ``--seconds`` even if the minimums are unmet.
OVERRUN_S = 60.0

#: Units of the end-to-end figures reported beside the ones BENCHMARK.json gates.
REPORT_UNITS = {
    "wall_s": "s",
    "probe_ms": "ms",
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "success_rate_r5": "ratio",
    "oracle_gap": "abs",
    "failed_frac": "ratio",
    "check_failures": "count",
}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def import_program():
    """Import maskrec from this checkout's ``src``; raise ImportError otherwise."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import maskrec

    if Path(maskrec.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"maskrec was imported from {maskrec.__file__}, not from {src}")
    return maskrec


def cold_setup(scenario) -> float:
    """Seconds a fresh process takes to import maskrec and build the scenario's pipeline."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), json.dumps(asdict(scenario))],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    return float(proc.stdout.split()[-1])


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()


def run_record(workload, seed: int, seconds: float, trace: int) -> dict:
    """What ran, where: machine, BLAS, versions, commit, seed and pool threads."""
    import numpy
    import scipy

    import maskrec

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": seed,
        "pool_threads": workload.threads,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": {var: os.environ.get(var) for var in BLAS_ENV},
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "maskrec": maskrec.__version__,
        "git_commit": _git_commit(),
    }


class SpeedProbe:
    """Machine-speed probe: a fixed kernel timed between repetitions.

    Other tenants of the machine slow everything here by up to half, for
    minutes at a time.  They slow this kernel and the program alike, so a
    repetition's time over the probe's time around it varies far less
    between runs than either time does.  The kernel does the kinds of work
    maskrec does (FFTs of windowed rows, a Euclidean distance transform, a
    Python loop of outer products) with no maskrec code, so a change to the
    program does not change it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._rows = rng.standard_normal((20, 256)) + 1j * rng.standard_normal((20, 256))
        self._window = rng.standard_normal(256) + 0j
        self._cells = rng.random((768, 768)) < 0.999

    def _pass(self) -> float:
        started = time.perf_counter()
        for x in range(0, 256, 2):
            np.fft.fft(self._rows * np.roll(self._window, x), axis=1)
        distance_transform_edt(self._cells)
        acc = np.zeros((256, 256), dtype=np.complex128)
        for x in range(64):
            g = np.roll(self._window, x)
            acc += np.outer(g, np.conj(g))
        return time.perf_counter() - started

    def __call__(self) -> float:
        """Median of three passes, in seconds."""
        return statistics.median(self._pass() for _ in range(3))


class Repetitions:
    """Outcome of repeating a workload: wall times, records and failures.

    Only the first output is kept whole, so memory does not grow with the
    number of repetitions a run fits in.  With a ``probe``, the probe is
    timed before the first repetition and after every one, and each
    repetition's time over the mean of the two probe times around it is kept.
    """

    def __init__(self, probe: SpeedProbe | None = None) -> None:
        self.probe = probe
        self.probe_s: list[float] = []
        self.relative: list[float] = []
        self.walls: list[float] = []
        self.records: list[dict] = []
        self.trial_ms: list[float] = []
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, workload, scenario, out_dir, threads: int) -> None:
        ops = workload.operations(scenario)
        self.attempted += ops
        if self.probe is not None and not self.probe_s:
            self.probe_s.append(self.probe())
        started = time.perf_counter()
        try:
            output = workload.repetition(scenario, out_dir, threads)
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += ops
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return
        wall = time.perf_counter() - started
        self.walls.append(wall)
        if self.probe is not None:
            self.probe_s.append(self.probe())
            self.relative.append(wall / (0.5 * (self.probe_s[-2] + self.probe_s[-1])))
        self.records.append(workload.record(output))
        self.trial_ms += workload.trial_ms(output)
        if self.first is None:
            self.first = output


def _enough(workload, reps: Repetitions, started: float, seconds: float) -> bool:
    """Stop once the minimums are met and another repetition would pass ``seconds``."""
    elapsed = time.perf_counter() - started
    if elapsed > seconds + OVERRUN_S:
        return True
    if len(reps.walls) < MIN_REPS:
        return False
    if workload.kind == "trials" and len(reps.trial_ms) < MIN_TRIAL_SAMPLES:
        return False
    return elapsed + _median(reps.walls) > seconds


def output_checks(workload, scenario, seed: int, reference: dict, reps: Repetitions) -> list[Check]:
    if reps.first is None:
        return [Check("repetitions.completed", False, "; ".join(reps.errors[:3]))]
    first = reps.records[0]
    checks = workload.output_checks(scenario, reps.first)
    checks.append(Check(
        "determinism.repetitions", all(r == first for r in reps.records[1:])
    ))
    if workload.reference_applies(seed):
        checks.append(compare("reference.record", first, reference["record"]))
    return checks


def end_to_end(workload, scenario, reps: Repetitions, setups: list[float]) -> dict:
    metrics = {
        "setup_s": _median(setups),
        # best of the run's repetitions: load from other tenants only ever
        # slows a repetition, and it drifts over tens of seconds, so the
        # fastest repetition varies least from run to run
        "wall_s": min(reps.walls, default=0.0),
        "wall_rel": _median(reps.relative),
        "probe_ms": 1e3 * _median(reps.probe_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": reps.failed / reps.attempted,
    }
    if reps.first is None:
        return metrics
    if workload.kind == "trials":
        trial_ms = reps.trial_ms
        metrics.update(
            trials_per_s=workload.operations(scenario) / _median(reps.walls),
            trial_ms_p50=_median(trial_ms),
            trial_ms_p90=_p90(trial_ms) if len(trial_ms) >= MIN_TRIAL_SAMPLES else 0.0,
            success_rate_r5=workload.success_rate(reps.first),
        )
    else:
        metrics["oracle_gap"] = workload.oracle_gap(reps.first)
    return metrics


def traced_run(workload, scenario, seed, reference, out_dir, seconds, spans_path):
    """Alternate untraced and traced repetitions; return per-layer metrics and checks.

    A multi-threaded workload also gets one traced single-thread repetition,
    which gives the pool's trial stretch and the thread-count identity check.
    """
    plain, traced = Repetitions(), Repetitions()
    tracer = Tracer()
    started = time.perf_counter()
    if workload.threads > 1:
        single, one = Tracer(), Repetitions()
        with installed(single):
            one.run(workload, scenario, out_dir, 1)
    while True:
        plain.run(workload, scenario, out_dir, workload.threads)
        with installed(tracer):
            traced.run(workload, scenario, out_dir, workload.threads)
        elapsed = time.perf_counter() - started
        if elapsed > seconds + OVERRUN_S or (
            len(traced.walls) >= MIN_TRACED_REPS
            and elapsed + _median(plain.walls) + _median(traced.walls) > seconds
        ):
            break
    checks = output_checks(workload, scenario, seed, reference, plain)
    if plain.records and traced.records:
        checks.append(Check(
            "determinism.traced_equals_untraced",
            all(r == plain.records[0] for r in traced.records),
        ))
    masks = tracer.trial_masks()
    if workload.reference_applies(seed) and "masks" in reference:
        checks.append(Check("reference.traced_masks", masks == reference["masks"]))

    metrics = layer_metrics(tracer.spans, max(len(traced.walls), 1))
    metrics["harness.pool.trial_stretch"] = 0.0
    if workload.threads > 1:
        checks.append(Check("determinism.thread_count_masks", single.trial_masks() == masks))
        if one.records and plain.records:
            checks.append(Check(
                "determinism.thread_count_records", one.records[0] == plain.records[0]
            ))
        one_thread = layer_metrics(single.spans, 1)["harness.run_trial.ms_p50"]
        if one_thread:
            metrics["harness.pool.trial_stretch"] = metrics["harness.run_trial.ms_p50"] / one_thread
        traced.attempted += one.attempted
        traced.failed += one.failed
    if plain.walls and traced.walls:
        metrics["trace.overhead_frac"] = _median(traced.walls) / _median(plain.walls) - 1.0
    else:
        metrics["trace.overhead_frac"] = 0.0
    tracer.dump(spans_path)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    return metrics, checks, attempted, failed


def write_reference(workload, reference_dir: Path = REFERENCE_DIR) -> Path:
    """Record ``workload``'s reference outputs at the default seed."""
    reference = {"scenario": asdict(workload.scenario(DEFAULT_SEED)), **workload.make_reference()}
    reference_dir.mkdir(parents=True, exist_ok=True)
    path = reference_dir / f"{workload.name}.json"
    path.write_text(json.dumps(reference) + "\n")
    return path


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload, seed: int, seconds: float, trace: int,
                  reference_dir: Path = REFERENCE_DIR, results_dir: Path = RESULTS_DIR) -> int:
    """Run one workload, print the report and the result line; return the exit code."""
    from maskrec import harness

    spec = _spec()
    reference = json.loads((reference_dir / f"{workload.name}.json").read_text())
    scenario = workload.scenario(seed)
    out_dir = results_dir / "work" / workload.name
    results_dir.mkdir(parents=True, exist_ok=True)

    # set-up: the first build absorbs first-call costs, the reference replays
    # warm the per-trial path; neither is timed
    checks = workload.setup_checks(harness.build_pipeline(scenario))
    expected = asdict(workload.scenario(DEFAULT_SEED))
    checks.append(Check(
        "reference.scenario",
        json.loads(json.dumps(expected)) == reference["scenario"],
    ))
    checks += workload.replay_checks(reference)

    if trace:
        spans_path = results_dir / f"{workload.name}-seed{seed}-spans.json"
        values, more, attempted, failed = traced_run(
            workload, scenario, seed, reference, out_dir, seconds, spans_path
        )
        checks += more
        gated = wanted = spec["per_layer"]
        samples = {}
        notes = {}
    else:
        setups: list[float] = []
        reps = Repetitions(SpeedProbe())
        started = time.perf_counter()
        while True:
            # cold set-ups are spread over the run, so they see the same load
            # as the repetitions
            if len(setups) < workload.setup_samples:
                setups.append(cold_setup(scenario))
            reps.run(workload, scenario, out_dir, workload.threads)
            if len(setups) == workload.setup_samples and _enough(
                workload, reps, started, seconds
            ):
                break
        checks += output_checks(workload, scenario, seed, reference, reps)
        values = end_to_end(workload, scenario, reps, setups)
        attempted, failed = reps.attempted, reps.failed
        gated = spec["end_to_end"]
        gated_names = {m["name"] for m in gated}
        wanted = gated + [
            {"name": name, "unit": unit}
            for name, unit in REPORT_UNITS.items()
            if (name in values or name == "check_failures") and name not in gated_names
        ]
        trials = len(reps.trial_ms)
        samples = {"setup_s": setups, "wall_s": reps.walls, "probe_s": reps.probe_s}
        notes = {
            "setup_s": f"median of {len(setups)} cold set-ups",
            "wall_s": f"best of {len(reps.walls)} repetitions, median {_median(reps.walls):.6g} s",
            "wall_rel": f"median over {len(reps.relative)} repetitions",
            "probe_ms": f"median of {len(reps.probe_s)} probe timings",
            "trial_ms_p50": f"n={trials}",
            "trial_ms_p90": f"n={trials}",
            "failed_frac": f"{failed} of {attempted}",
        }
    failures = sum(not c.passed for c in checks)
    values["check_failures"] = failures
    correct = failures == 0

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"# maskrec benchmark: workload={workload.name} seed={seed} trace={trace}")
    for name, metric in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}{note}")
    for check in checks:
        print(check.line())
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: metrics[m["name"]] for m in gated},
    }
    (results_dir / f"{workload.name}-seed{seed}-trace{trace}.json").write_text(json.dumps({
        "run": run_record(workload, seed, seconds, trace),
        "metrics": metrics,
        "samples": samples,
        "checks": [asdict(c) for c in checks],
        "result": result,
    }, indent=1))
    print(json.dumps(result))
    return 0 if correct and failed == 0 else 1


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the workload seed must be non-negative")
    return seed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot run, maskrec is not in this checkout: {exc}", file=sys.stderr)
        return 2
    return run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)

"""Scenario configuration, Monte Carlo trial orchestration and output files.

Reproducibility contract: a (scenario, seed) pair fully determines every
emitted mask and every numeric CSV cell except wall_time.  Each trial owns
an RNG stream derived from the scenario seed and the trial index, so runs
are identical whether trials run on one worker or on several, and results
are merged in trial order.
"""

from __future__ import annotations

import math
import operator
import os
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import estimator, locop, maskgeom, noise, tfcore
from .errors import ConfigurationError
from .maskgeom import Mask, make_mask, scaled_shape_spec
from .tfcore import TFGrid, Window, make_window

CSV_HEADER = "# maskrec-csv v1"

#: Default containment radii (continuous units): small cell-side multiples.
DEFAULT_R_CELLS = (2.0, 3.0, 4.0)

#: The default truth: a disc of measure 100 on the 256-grid.
DEFAULT_SHAPE = "disc:measure=100"


def default_shape(n: int) -> str:
    """The default disc on an n-grid, covering the same share of the plane."""
    return scaled_shape_spec(DEFAULT_SHAPE, 100.0 * n / 256)


def _success_columns(r_list: tuple[float, ...]) -> list[str]:
    return [f"success_r_{format(r, 'g')}" for r in r_list]


@dataclass(frozen=True)
class Scenario:
    """One fully specified estimation experiment.

    An empty ``shape`` or ``r_list`` is filled in with the default disc or
    the default radii of the grid size ``n``.
    """

    n: int = 256
    shape: str = ""
    model_window: str = tfcore.WINDOW_GAUSSIAN
    recon_window: str = tfcore.WINDOW_GAUSSIAN
    count: int = 20
    sigma: float = 1.0
    noise_kind: str = noise.KIND_COMPLEX
    trials: int = 50
    seed: int = 7
    r_list: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for name in ("n", "count", "trials", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None
        if not 16 <= self.n <= 512:
            raise ConfigurationError(f"n must be in [16, 512], got {self.n}")
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")
        if self.count < 1:
            raise ConfigurationError(f"K must be >= 1, got {self.count}")
        if self.noise_kind not in (noise.KIND_COMPLEX, noise.KIND_REAL):
            raise ConfigurationError(f"unknown noise kind {self.noise_kind!r}")
        lo, hi = noise.SIGMA_RANGE
        if not lo <= self.sigma <= hi:
            raise ConfigurationError(f"sigma must be finite, in [{lo}, {hi}], got {self.sigma}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if not self.shape:
            object.__setattr__(self, "shape", default_shape(self.n))
        if not self.r_list:
            side = TFGrid(self.n).cell_side
            object.__setattr__(
                self, "r_list", tuple(float(c * side) for c in DEFAULT_R_CELLS)
            )
        r_list = list(self.r_list)
        if not all(map(math.isfinite, r_list)) or r_list != sorted(r_list):
            raise ConfigurationError(f"r_list must be finite and ascending, got {r_list}")
        # copysign, not < 0, so that -0 and its success_r_-0 column go too
        if any(math.copysign(1.0, r) < 0 for r in r_list):
            raise ConfigurationError(f"r_list must be non-negative, got {r_list}")
        # ascending radii give names in order, so a repeated name is adjacent
        columns = _success_columns(self.r_list)
        for earlier, column in zip(columns, columns[1:]):
            if column == earlier:
                raise ConfigurationError(
                    f"r_list values {r_list} give the CSV column {column!r} twice"
                )


# ---------------------------------------------------------------------------
# Configuration files


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a key/value config file: one ``key = value`` per line, # comments."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {str(path)!r}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        if key in values:
            raise ConfigurationError(f"{path}:{lineno}: repeated key {key!r}")
        values[key] = value
    return values


def _convert(name: str, text: str, kind: type):
    """Convert one non-blank string to ``kind``; floats must be finite."""
    if not text.strip():
        raise ConfigurationError(f"bad value for {name}: {text!r}")
    try:
        value = kind(text)
    except ValueError:
        raise ConfigurationError(f"bad value for {name}: {text!r}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {text!r}")
    return value


def parse_list(name: str, text: str, kind: type) -> tuple:
    """Parse a comma-separated list of ints or floats; no item may be blank."""
    return tuple(_convert(name, item, kind) for item in text.split(","))


#: Scenario field of each config key: the field names, with ``K`` for ``count``.
_FIELD_OF_KEY = {("K" if f.name == "count" else f.name): f.name for f in fields(Scenario)}
SCENARIO_KEYS = tuple(_FIELD_OF_KEY)
_FIELD_TYPES = get_type_hints(Scenario)


def scenario_from_mapping(values: dict[str, str]) -> Scenario:
    """Build a scenario from string key/value pairs.

    A key left out takes its default; a left-out ``shape`` or ``r_list``
    that of the mapping's own ``n``.
    """
    kwargs = {}
    for key, text in values.items():
        if key not in _FIELD_OF_KEY:
            raise ConfigurationError(f"unknown scenario key {key!r}")
        field_name = _FIELD_OF_KEY[key]
        kind = _FIELD_TYPES[field_name]
        if get_origin(kind) is tuple:
            kwargs[field_name] = parse_list(key, text, get_args(kind)[0])
        else:
            kwargs[field_name] = _convert(key, text, kind)
    return Scenario(**kwargs)


#: The scenario keys each preset sets; the command line merges them under a
#: config file's keys and its flags.
PRESET_KEYS: dict[str, dict[str, str]] = {
    "figure1-left": {},
    "figure1-right": {"model_window": tfcore.WINDOW_GAUSSIAN_T2},
}
PRESETS: dict[str, Scenario] = {
    name: scenario_from_mapping(keys) for name, keys in PRESET_KEYS.items()
}


# ---------------------------------------------------------------------------
# Trials


@dataclass(frozen=True)
class TrialResult:
    """Outcome of a single seeded trial; deterministic except wall_time."""

    trial_index: int
    seed: int
    error: maskgeom.ErrorReport
    success_at_r: tuple[bool, ...]
    max_rho: float
    wall_time: float


@dataclass(frozen=True)
class Pipeline:
    """Scenario-level objects shared by all trials."""

    scenario: Scenario
    grid: TFGrid
    truth: Mask
    model: Window
    recon: Window
    H: np.ndarray


def build_pipeline(scenario: Scenario) -> Pipeline:
    grid = TFGrid(scenario.n)
    truth = make_mask(grid, scenario.shape)
    model = make_window(grid, scenario.model_window)
    # windows are immutable, so equal labels share one window and its lag plan
    recon = (
        model
        if scenario.recon_window == scenario.model_window
        else make_window(grid, scenario.recon_window)
    )
    H = locop.assemble_locop(truth, model)
    return Pipeline(
        scenario=scenario, grid=grid, truth=truth, model=model, recon=recon, H=H
    )


def trial_seed(scenario_seed: int, trial_index: int) -> int:
    """Derive the noise seed of one trial; independent of execution order."""
    ss = np.random.SeedSequence(entropy=scenario_seed, spawn_key=(trial_index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _draw(scenario: Scenario, seed: int) -> np.ndarray:
    """Realizations ``0 .. K-1`` of the trial stream ``seed``, as a (K, n) array."""
    return noise.sample_noise(
        TFGrid(scenario.n), scenario.count, scenario.sigma, kind=scenario.noise_kind, seed=seed
    ).realizations


def run_trial(
    pipeline: Pipeline,
    trial_index: int,
    keep_fields: bool = False,
    rows: np.ndarray | None = None,
) -> tuple[TrialResult, dict]:
    """Estimate and score one trial from its K filtered ``rows``, real or
    complex noise alike; with ``None`` it draws and filters its own.

    Returns the result and, when ``keep_fields`` is set, the rho field and
    estimate cells for artifact emission.
    """
    sc = pipeline.scenario
    started = time.perf_counter()
    seed = trial_seed(sc.seed, trial_index)
    if rows is None:
        rows = noise.filter_batch(_draw(sc, seed), pipeline.H)
    avg = estimator.average_spectrogram(rows, pipeline.recon)
    est = estimator.estimate_mask(avg)
    report = maskgeom.error_report(pipeline.truth, est.cells)
    success = tuple(report.containment_radius <= r for r in sc.r_list)
    result = TrialResult(
        trial_index=trial_index,
        seed=seed,
        error=report,
        success_at_r=success,
        max_rho=est.max_rho,
        wall_time=time.perf_counter() - started,
    )
    extras = {"rho": avg.rho, "estimate": est.cells} if keep_fields else {}
    return result, extras


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _workers(sc: Scenario, truth: Mask, threads: int) -> int:
    """The worker count for the scenario's trials: at most one per trial and per usable CPU.

    The calling thread is one of the workers, so ``w`` workers start ``w - 1``
    threads.

    A thread count that is not an integer or is below 1 raises
    :class:`ConfigurationError`, and so does a ``truth`` with no boundary,
    the full plane or the empty mask, which would score every trial inf.
    """
    try:
        threads = operator.index(threads)
    except TypeError:
        raise ConfigurationError(f"thread count must be an integer, got {threads!r}") from None
    if threads < 1:
        raise ConfigurationError(f"thread count must be >= 1, got {threads}")
    if truth.perimeter == 0:
        raise ConfigurationError(
            f"shape {sc.shape!r} has no boundary, so every containment radius and ratio is inf"
        )
    return min(threads, sc.trials, _usable_cpus())


def _each(count: int, job: Callable[[int], object], workers: int) -> list:
    """Run ``job(i)`` for every ``i < count`` on ``workers`` workers; results in index order.

    The calling thread is a worker, and ``workers - 1`` plain threads join
    it, so one worker starts none; each worker takes the next index in turn.
    Once a job raises, no further index starts; the workers finish, and the
    error of the lowest failing index is raised.
    """
    outcomes: list = [None] * count
    failures: dict[int, BaseException] = {}
    pending = iter(range(count))
    lock = threading.Lock()

    def take() -> int | None:
        with lock:
            return None if failures else next(pending, None)

    def work() -> None:
        i = -1  # an interrupt between two jobs is charged to the one before
        try:
            while (i := take()) is not None:
                outcomes[i] = job(i)
        except BaseException as exc:
            failures[i] = exc

    others = [threading.Thread(target=work) for _ in range(workers - 1)]
    for other in others:
        other.start()
    work()
    for other in others:
        other.join()
    if failures:
        raise failures[min(failures)]
    return outcomes


def run_trials(
    pipeline: Pipeline, threads: int = 1, rows: Callable[[int], np.ndarray] | None = None
) -> tuple[list[TrialResult], dict]:
    """Run every trial of a scenario through :func:`_each` on :func:`_workers` workers.

    With ``rows``, a callable from a trial index to that trial's filtered
    rows, each trial's worker calls it and the trial scores what it returns.
    """

    def trial(t: int) -> tuple[TrialResult, dict]:
        given = None if rows is None else rows(t)
        return run_trial(pipeline, t, keep_fields=(t == 0), rows=given)

    sc = pipeline.scenario
    outcomes = _each(sc.trials, trial, _workers(sc, pipeline.truth, threads))
    return [r for r, _ in outcomes], outcomes[0][1]


# ---------------------------------------------------------------------------
# CSV / artifact emission


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv(columns: list[str], rows: list[list], comments=()) -> str:
    lines = [CSV_HEADER, *comments, ",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_files(out: Path, files: dict[str, bytes]) -> None:
    """Create the directory ``out`` and write each named file under it, in order.

    Commands encode every file before calling this, so a rejected run
    leaves no directory behind.  A directory that cannot be made, or a file
    under it that cannot be written, is a ConfigurationError naming it; the
    files written before a failed one are removed first.
    """
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {str(out)!r}: {exc}") from exc
    written: list[Path] = []
    for name, data in files.items():
        path = out / name
        try:
            path.write_bytes(data)
        except OSError as exc:
            for done in written:
                done.unlink(missing_ok=True)
            raise ConfigurationError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from exc
        written.append(path)


def run_simulate(
    scenario: Scenario, out_dir: str | Path, threads: int = 1
) -> list[TrialResult]:
    """Run the scenario and emit trials.csv plus first-trial PGM artifacts."""
    pipeline = build_pipeline(scenario)
    results, extras = run_trials(pipeline, threads)

    columns = (
        ["trial_index", "seed", "sym_diff_measure", "perimeter",
         "containment_radius", "ratio"]
        + _success_columns(scenario.r_list)
        + ["max_rho", "wall_time"]
    )
    rows = []
    for r in results:
        rows.append(
            [r.trial_index, r.seed, r.error.sym_diff_measure, r.error.perimeter,
             r.error.containment_radius, r.error.ratio]
            + list(r.success_at_r)
            + [r.max_rho, r.wall_time]
        )
    truth, est_cells = pipeline.truth.cells, extras["estimate"]
    rho_pgm, max_used = maskgeom.field_pgm(extras["rho"])
    meta = f"field = rho\nquantization = linear 8-bit\nmax_rho = {_fmt(float(max_used))}\n"
    _write_files(Path(out_dir), {
        "trials.csv": _csv(columns, rows).encode(),
        "truth.pgm": maskgeom.mask_pgm(truth),
        "estimate.pgm": maskgeom.mask_pgm(est_cells),
        "symdiff.pgm": maskgeom.mask_pgm(truth ^ est_cells),
        "rho.pgm": rho_pgm,
        "rho.meta.txt": meta.encode(),
    })
    return results


def run_sweep(
    scenario: Scenario,
    axis: str,
    values: list,
    out_dir: str | Path,
    threads: int = 1,
) -> list[dict]:
    """Sweep K or the mask measure; emit one summary row per value.

    Each returned row holds the summary.csv fields of its value and, under
    ``"results"``, the :class:`TrialResult` list its statistics come from,
    in trial order.

    K leaves the truth, the windows and H unchanged, so its values share one
    pipeline and only its scenario is replaced; a measure sweep builds each
    value's pipeline just before its trials.  Bad values and threads, and a
    truth with no boundary, raise before any noise is drawn.

    The noise is shared by one rule: realizations ``0 .. K-1`` of every
    trial, for the last value's K (a K sweep's largest, a measure sweep's
    one K), are drawn into one (trials, K, n) array through :func:`_each`
    on the trials' workers, and every value's trials take their first K
    rows.  In a K sweep, of real or complex noise, the worker that draws a
    trial filters its rows once, in place, right after the draw; that gives
    each value a fresh run's results bit for bit for K >= 2, while at K = 1
    a fresh run filters its row as a matrix-vector product, so ``max_rho``
    may differ by 1e-15 relative.  A measure value has its own H, so its
    rows are filtered on its trial's worker.  Then each value runs one
    :func:`run_trials`, in value order.
    """
    if axis not in ("K", "measure"):
        raise ConfigurationError(f"unknown sweep axis {axis!r}")
    if len(values) == 0:
        raise ConfigurationError("a sweep needs at least one value")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ConfigurationError("sweep values must be strictly ascending")

    shared = None
    if axis == "K":
        # every K is validated before anything runs: the drawn array is sized from them
        scenarios = [replace(scenario, count=value) for value in values]
        shared = build_pipeline(scenario)
    else:
        scenarios = [
            replace(scenario, shape=scaled_shape_spec(scenario.shape, float(value)))
            for value in values
        ]
    # every value's truth is checked before the draw; a measure value's H waits for its trials
    workers = min(
        _workers(sc, shared.truth if shared else make_mask(TFGrid(sc.n), sc.shape), threads)
        for sc in scenarios
    )
    last = scenarios[-1]
    drawn = np.empty((last.trials, last.count, last.n), dtype=np.complex128)

    def draw(t: int) -> None:
        drawn[t] = _draw(last, trial_seed(last.seed, t))
        if shared:
            drawn[t] = noise.filter_batch(drawn[t], shared.H)
            if t == 0:
                # the first value's first error_report would compute the distances otherwise
                shared.truth.boundary_distance

    _each(last.trials, draw, workers)

    summary_rows: list[dict] = []
    for value, sc in zip(values, scenarios):
        pipeline = replace(shared, scenario=sc) if shared else build_pipeline(sc)

        def rows(t):
            kept = drawn[t, :sc.count]
            return kept if shared else noise.filter_batch(kept, pipeline.H)

        results, _ = run_trials(pipeline, threads, rows=rows)
        sym = np.array([r.error.sym_diff_measure for r in results])
        ratios = np.array([r.error.ratio for r in results])
        successes = np.array([r.success_at_r for r in results], dtype=float)
        summary_rows.append(
            {
                "axis": axis,
                "value": value,
                "trials": len(results),
                "mean_sym_diff": float(sym.mean()),
                "median_sym_diff": float(np.median(sym)),
                "mean_ratio": float(ratios.mean()),
                "success_rates": tuple(successes.mean(axis=0)),
                "results": results,
            }
        )

    columns = (
        ["axis", "value", "trials", "mean_sym_diff", "median_sym_diff", "mean_ratio"]
        + [c.replace("success_r_", "success_rate_r_") for c in _success_columns(scenario.r_list)]
    )
    rows = [
        [s["axis"], s["value"], s["trials"], s["mean_sym_diff"],
         s["median_sym_diff"], s["mean_ratio"], *s["success_rates"]]
        for s in summary_rows
    ]
    comments = []
    if axis == "K" and len(summary_rows) >= 2:
        comments.append(f"# diagnostic: {_failure_decay_comment(summary_rows)}")
    _write_files(Path(out_dir), {"summary.csv": _csv(columns, rows, comments).encode()})
    return summary_rows


def _failure_decay_comment(summary_rows: list[dict]) -> str:
    """Fit an exponential decay rate of the failure rate against K.

    Reported for inspection only (the theory promises some exponential rate
    with unspecified constants); no test asserts the fitted value.
    """
    ks = np.array([float(s["value"]) for s in summary_rows])
    # failure rate at the largest configured radius, continuity-corrected
    fails = np.array([1.0 - s["success_rates"][-1] for s in summary_rows])
    trials = np.array([s["trials"] for s in summary_rows], dtype=float)
    corrected = (fails * trials + 0.5) / (trials + 1.0)
    slope = np.polyfit(ks, np.log(corrected), 1)[0]
    return f"failure_rate_exp_decay_per_K = {_fmt(float(-slope))}"


def run_spectrum(scenario: Scenario, out_dir: str | Path) -> Path:
    """Eigenvalue profile of the scenario's operator, with plateau columns."""
    pipeline = build_pipeline(scenario)
    omega = maskgeom.measure(pipeline.truth)
    spec = locop.spectrum(pipeline.H, omega)
    largeness = locop.check_largeness(pipeline.truth, pipeline.model)
    violations = locop.plateau_violations(spec)
    perim = pipeline.truth.perimeter

    columns = ["m", "eigenvalue", "measure", "perimeter", "largeness_pass",
               "largeness_lhs", "largeness_rhs", "plateau_violations"]
    rows = [
        [m + 1, float(spec.eigenvalues[m]), omega, perim, largeness.passed,
         largeness.lhs, largeness.rhs, violations]
        for m in range(spec.eigenvalues.size)
    ]
    _write_files(Path(out_dir), {"spectrum.csv": _csv(columns, rows).encode()})
    return Path(out_dir) / "spectrum.csv"


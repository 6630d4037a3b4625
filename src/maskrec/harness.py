"""Scenario configuration, Monte Carlo trial orchestration, and verification.

Reproducibility contract: a (scenario, seed) pair fully determines every
emitted mask and every numeric CSV cell except wall_time.  Each trial owns
an RNG stream derived from the scenario seed and the trial index, so runs
are identical whether trials execute serially or on a thread pool, and
results are merged in trial order.
"""

from __future__ import annotations

import math
import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
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
        if self.noise_kind == noise.KIND_REAL and self.count < 4:
            raise ConfigurationError("real noise needs K >= 4")
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


#: Mask bank exercised by the spectrum/plateau checks: a mix of shapes that
#: genuinely satisfy the largeness condition (full plane, wide bands, the
#: plane with a small hole) and disc scenarios that do not but are kept for
#: reporting.
SPECTRUM_BANK: tuple[tuple[str, int, str], ...] = (
    ("full-64", 64, "full"),
    ("band-96-128", 128, "rect:x0=0,f0=0,w=128,h=96"),
    ("band-160-256", 256, "rect:x0=0,f0=0,w=256,h=160"),
    ("holey-plane-64", 64, "not:disc:measure=4"),
    ("holey-plane-128", 128, "not:disc:measure=8"),
    ("figure1-disc-256", 256, "disc:measure=100"),
    ("disc-8-64", 64, "disc:measure=8"),
)


# ---------------------------------------------------------------------------
# Configuration files


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a key/value config file: one ``key = value`` per line, # comments."""
    try:
        text = Path(path).read_text(encoding="utf-8")
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


def run_trial(
    pipeline: Pipeline,
    trial_index: int,
    keep_fields: bool = False,
    drawn: np.ndarray | None = None,
) -> tuple[TrialResult, dict]:
    """Sample, filter, estimate and score one trial.

    Returns the result and, when ``keep_fields`` is set, the rho field and
    estimate cells for artifact emission.  With ``drawn``, a (trials, at
    least K, n) array whose row ``[t, k]`` is realization k of trial t's
    stream, the trial takes ``drawn[trial_index, :K]`` instead of sampling.
    """
    sc = pipeline.scenario
    started = time.perf_counter()
    seed = trial_seed(sc.seed, trial_index)
    if drawn is None:
        batch = noise.sample_noise(
            pipeline.grid, sc.count, sc.sigma, kind=sc.noise_kind, seed=seed
        )
    else:
        batch = noise.NoiseBatch(realizations=drawn[trial_index, : sc.count], kind=sc.noise_kind)
    if sc.noise_kind == noise.KIND_REAL:
        batch = noise.complexify(batch)
    avg = estimator.average_spectrogram(noise.filter_batch(batch, pipeline.H), pipeline.recon)
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


def run_trials(
    pipeline: Pipeline, threads: int = 1, drawn: np.ndarray | None = None
) -> tuple[list[TrialResult], dict]:
    """Run all trials of a scenario on at most one worker per trial and per
    usable CPU; ordered merge.

    Every trial takes its realizations from ``drawn`` as :func:`run_trial` does.
    """
    sc = pipeline.scenario
    if threads < 1:
        raise ConfigurationError(f"thread count must be >= 1, got {threads}")
    workers = min(threads, sc.trials, _usable_cpus())
    indices = range(sc.trials)

    def one(t):
        return run_trial(pipeline, t, keep_fields=(t == 0), drawn=drawn)

    if workers == 1:
        outcomes = [one(t) for t in indices]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one, indices))
    results = [r for r, _ in outcomes]
    first_extras = outcomes[0][1]
    return results, first_extras


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


def _write_csv(path: Path, columns: list[str], rows: list[list], comments: list[str] = ()) -> None:
    lines = [CSV_HEADER]
    lines.extend(comments)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _output_dir(out_dir: str | Path) -> Path:
    """Create the output directory; a path that cannot be one is a ConfigurationError."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {str(out)!r}: {exc}") from exc
    return out


@contextmanager
def _writing(out: Path):
    """Yield ``write(path, writer, *args)``, which calls ``writer(path, *args)``.

    A file under ``out`` that cannot be written is a ConfigurationError
    naming it, raised after the files written before it are removed.
    """
    written: list[Path] = []

    def write(path: Path, writer, *args):
        value = writer(path, *args)
        written.append(path)
        return value

    try:
        yield write
    except OSError as exc:
        for done in written:
            done.unlink(missing_ok=True)
        path = exc.filename or out
        raise ConfigurationError(f"cannot write {str(path)!r}: {exc.strerror or exc}") from exc


def run_simulate(
    scenario: Scenario, out_dir: str | Path, threads: int = 1
) -> list[TrialResult]:
    """Run the scenario and emit trials.csv plus first-trial PGM artifacts."""
    out = _output_dir(out_dir)
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
    with _writing(out) as write:
        write(out / "trials.csv", _write_csv, columns, rows)
        write(out / "truth.pgm", maskgeom.write_mask_pgm, truth)
        write(out / "estimate.pgm", maskgeom.write_mask_pgm, est_cells)
        write(out / "symdiff.pgm", maskgeom.write_mask_pgm, truth ^ est_cells)
        max_used = write(out / "rho.pgm", maskgeom.write_field_pgm, extras["rho"])
        write(
            out / "rho.meta.txt",
            Path.write_text,
            "field = rho\nquantization = linear 8-bit\n"
            f"max_rho = {_fmt(float(max_used))}\n",
        )
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
    pipeline and only its scenario is replaced; a measure sweep builds one
    pipeline per value.  Before the first value, the calling thread draws
    each trial's realizations for the largest K (a measure sweep's one K)
    into one (trials, K, n) array that lives for the sweep; every value's
    trials take their first K rows from it.
    """
    if axis not in ("K", "measure"):
        raise ConfigurationError(f"unknown sweep axis {axis!r}")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ConfigurationError("sweep values must be strictly ascending")
    out = _output_dir(out_dir)

    if axis == "K":
        # every K is validated before anything runs: the drawn array is sized from them
        scenarios = [replace(scenario, count=value) for value in values]
        shared = build_pipeline(scenario)
        pipelines = (replace(shared, scenario=sc) for sc in scenarios)
        count = max((sc.count for sc in scenarios), default=scenario.count)
    else:
        pipelines = (
            build_pipeline(
                replace(scenario, shape=scaled_shape_spec(scenario.shape, float(value)))
            )
            for value in values
        )
        count = scenario.count
    # drawn here, not in the pool: each realization's Python-level re-key
    # holds the interpreter lock, so pool threads drawing at once wait on it
    grid = TFGrid(scenario.n)
    drawn = np.empty((scenario.trials, count, scenario.n), dtype=np.complex128)
    for t, rows in enumerate(drawn):
        rows[:] = noise.sample_noise(
            grid, count, scenario.sigma, kind=scenario.noise_kind,
            seed=trial_seed(scenario.seed, t),
        ).realizations
    summary_rows: list[dict] = []
    for value, pipeline in zip(values, pipelines):
        results, _ = run_trials(pipeline, threads, drawn=drawn)
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
    with _writing(out):
        _write_csv(out / "summary.csv", columns, rows, comments=comments)
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
    out = _output_dir(out_dir)
    pipeline = build_pipeline(scenario)
    omega = maskgeom.measure(pipeline.truth)
    spec = locop.spectrum(pipeline.H, omega)
    largeness = locop.check_largeness(pipeline.truth, pipeline.model)
    violations = locop.plateau_violations(spec)
    perim = maskgeom.perimeter(pipeline.truth)

    columns = ["m", "eigenvalue", "measure", "perimeter", "largeness_pass",
               "largeness_lhs", "largeness_rhs", "plateau_violations"]
    rows = [
        [m + 1, float(spec.eigenvalues[m]), omega, perim, largeness.passed,
         largeness.lhs, largeness.rhs, violations]
        for m in range(spec.eigenvalues.size)
    ]
    path = out / "spectrum.csv"
    with _writing(out):
        _write_csv(path, columns, rows)
    return path


# ---------------------------------------------------------------------------
# Verification suite


@dataclass(frozen=True)
class CheckResult:
    name: str
    defect: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.defect <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: defect={self.defect:.3e} tol={self.tolerance:.3e}"


#: Share of the cells inside a random verify mask.
_RANDOM_FILL = 0.2

#: Number of points z at which the reproducing identity is checked.
_REPRODUCING_POINTS = 12


def _random_mask(grid: TFGrid, rng: np.random.Generator) -> Mask:
    cells = rng.random((grid.n, grid.n)) < _RANDOM_FILL
    return Mask(cells)


def _reproducing_defect(g: Window, rng: np.random.Generator) -> float:
    """Brute-force kernel-sum check of the lattice reproducing identity."""
    grid = g.grid
    n = grid.n
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    V = tfcore.stft(f, g)
    # all time-frequency shifts of g, flattened as pi(x, xi) -> row x*n+xi
    t = np.arange(n)
    phases = np.exp(2j * np.pi * np.outer(t, t) / n)  # [xi, t]
    shifts = np.einsum("xt,ft->xft", tfcore.translates(g), phases).reshape(n * n, n)
    worst = 0.0
    zs = rng.integers(0, n, size=(_REPRODUCING_POINTS, 2))
    for zx, zf in zs:
        pz = tfcore.tf_shift(g.samples, (int(zx), int(zf)))
        kernel = shifts @ np.conj(pz)  # K(z, w) over all w
        total = np.dot(V.ravel(), kernel) * grid.cell_measure
        worst = max(worst, abs(total - V[zx, zf]))
    return worst


def run_verify(
    ns: tuple[int, ...] = (8, 16, 32),
    seed: int = 20240901,
) -> list[CheckResult]:
    """Run every module invariant at oracle-speed sizes."""
    if not ns:
        raise ConfigurationError("verify needs at least one size")
    if len(set(ns)) != len(ns):
        raise ConfigurationError(f"verify sizes must not repeat, got {list(ns)}")
    for n in ns:
        if not 8 <= n <= 64:
            raise ConfigurationError(f"verify sizes must lie in [8, 64], got {n}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    # size n draws its noise with the Philox key seed + n, below 2**64
    if seed + max(ns) >= 1 << 64:
        raise ConfigurationError(f"seed + n must be below 2**64, got seed {seed}")
    checks: list[CheckResult] = []
    rng = np.random.default_rng(seed)

    for n in ns:
        # shared objects; the rng draws keep their order: signals, G, the
        # reproducing check, then the four random masks
        grid = TFGrid(n)
        g = phi = make_window(grid, tfcore.WINDOW_GAUSSIAN)
        g2 = make_window(grid, tfcore.WINDOW_GAUSSIAN_T2)
        signals = rng.standard_normal((100, n)) + 1j * rng.standard_normal((100, n))
        f = signals[0]
        F = tfcore.stft(f, g)
        z0 = (n // 3, (2 * n) // 3)
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        # the brute-force kernel sum runs at n <= 32 only
        reproducing = _reproducing_defect(g, rng) if n <= 32 else None
        rand_mask, a, b, c = (_random_mask(grid, rng) for _ in range(4))
        disc = maskgeom.disc_mask(grid, grid.plane_measure / 8)
        H = locop.assemble_locop(disc, g)
        spec = locop.spectrum(H, maskgeom.measure(disc))
        grown = maskgeom.dilate(disc, 2.5 * grid.cell_side)
        spec_grown = locop.spectrum(locop.assemble_locop(grown, g), maskgeom.measure(grown))
        th = locop.theta(spec, phi).values
        reg_lhs, reg_rhs = locop.regularization_defect(disc, g, phi)
        reg_lhs2, reg_rhs2 = locop.regularization_defect(disc, g2, phi)
        batch = noise.sample_noise(grid, 10, 1.0, seed=seed + n)
        coeffs = noise.eigen_coefficients(batch, spec)
        estimates = [
            estimator.estimate_mask(
                estimator.average_spectrogram(
                    noise.filter_batch(noise.sample_noise(grid, 8, sigma, seed=seed + n), H),
                    phi,
                )
            ).cells
            for sigma in (0.1, 1.0, 10.0)
        ]
        sym_ab, sym_ba, sym_ac, sym_bc = (
            maskgeom.error_report(p, q.cells).sym_diff_measure
            for p, q in ((a, b), (b, a), (a, c), (b, c))
        )

        rows = [
            ("tfcore.isometry", 1e-10, float(np.max(np.abs(
                np.sum(np.abs(tfcore.stft(signals, g)) ** 2, axis=(1, 2))
                - np.sum(np.abs(signals) ** 2, axis=1)
            )))),
            ("tfcore.covariance", 1e-10, float(np.max(np.abs(
                np.abs(tfcore.stft(tfcore.tf_shift(f, z0), g))
                - np.abs(np.roll(F, z0, axis=(0, 1)))
            )))),
            ("tfcore.adjoint", 1e-10, float(abs(
                np.sum(F * np.conj(G)) - np.sum(f * np.conj(tfcore.istft(G, g)))
            ))),
            ("tfcore.reproducing", 1e-9, reproducing),
            ("locop.trace", 1e-9, max(
                abs(float(np.trace(h).real) - maskgeom.measure(mask))
                for mask, h in ((disc, H), (rand_mask, locop.assemble_locop(rand_mask, g)))
            )),
            ("locop.eigenvector_gram", 1e-9, float(np.max(np.abs(
                spec.eigenvectors.conj().T @ spec.eigenvectors - np.eye(n)
            )))),
            ("locop.eigenvalue_sum", 1e-9,
             abs(float(spec.eigenvalues.sum()) - spec.omega_measure)),
            ("locop.monotonicity", 1e-9,
             float(np.max(spec.eigenvalues - spec_grown.eigenvalues))),
            ("locop.double_orth", 1e-8,
             locop.double_orthogonality_defect(spec, disc, g, m_max=8)),
            ("locop.first_moment", 1e-8, locop.theta_first_moment(spec, phi, disc, g)),
            ("locop.theta_bounds", 1e-9, max(
                float(th.max()) - 1.0,
                float(th.sum() * grid.cell_measure) - spec.omega_measure,
                0.0,
            )),
            ("locop.theta_l1_bound", 0.0,
             float(np.sum(np.abs(disc.cells - th)) * grid.cell_measure)
             - 2.0 * locop.ambiguity_moment(g, phi) * maskgeom.perimeter(disc)),
            ("locop.far_field", 1e-8, locop.far_field_defect(spec, disc, g, phi)),
            ("locop.regularization", 0.0, reg_lhs - 1.1 * reg_rhs),
            ("locop.regularization_t2", 0.0, reg_lhs2 - 1.1 * reg_rhs2),
            ("noise.parseval", 1e-9, float(np.max(np.abs(
                np.sum(np.abs(coeffs) ** 2, axis=1)
                - np.sum(np.abs(batch.realizations) ** 2, axis=1)
            )))),
            ("noise.eigen_expansion", 1e-9, float(np.max(np.abs(
                noise.filter_batch(batch, H)
                - (coeffs * spec.eigenvalues) @ spec.eigenvectors.T
            )))),
            ("noise.sigma_scaling", 0.0, float(np.max(np.abs(
                noise.sample_noise(grid, 10, 2.0, seed=seed + n).realizations
                - 2.0 * batch.realizations
            )))),
            ("estimator.sigma_invariance", 0.0,
             0.0 if all(np.array_equal(e, estimates[0]) for e in estimates) else 1.0),
            ("maskgeom.geometry", 1e-12, max(
                abs(maskgeom.perimeter(maskgeom.rect_mask(grid, 1, 2, 3, 2))
                    - 2 * (3 + 2) * grid.cell_side),
                abs(sym_ab - sym_ba),
                sym_ac - (sym_ab + sym_bc),
            )),
        ]
        checks += [
            CheckResult(f"{name}[n={n}]", defect, tolerance)
            for name, tolerance, defect in rows
            if defect is not None
        ]

    # empty-mask scenario passes operator checks with a zero spectrum
    grid = TFGrid(ns[0])
    g = make_window(grid, tfcore.WINDOW_GAUSSIAN)
    empty = Mask(np.zeros((grid.n, grid.n), bool))
    H0 = locop.assemble_locop(empty, g)
    spec0 = locop.spectrum(H0, 0.0)
    checks.append(
        CheckResult(
            "locop.empty_mask",
            max(float(np.max(np.abs(H0))), float(spec0.eigenvalues.max())),
            1e-12,
        )
    )

    # plateau on small bank members that satisfy the largeness condition
    for name, n, shape in SPECTRUM_BANK:
        if n > max(ns):
            continue
        grid = TFGrid(n)
        mask = make_mask(grid, shape)
        g = make_window(grid, tfcore.WINDOW_GAUSSIAN)
        largeness = locop.check_largeness(mask, g)
        if not largeness.passed:
            continue
        spec = locop.spectrum(locop.assemble_locop(mask, g), maskgeom.measure(mask))
        checks.append(
            CheckResult(
                f"locop.plateau[{name}]", float(locop.plateau_violations(spec)), 0.0
            )
        )

    return checks

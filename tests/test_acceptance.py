"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Every tolerance is pinned here.  Containment radii and the ratio
cap are existential constants in the underlying theory; the frozen values
below come from one-time seeded calibration runs at the stated operating
points (see README, "Calibration") and are asserted as-is.
"""

import time
from dataclasses import replace

import numpy as np
from scipy.special import gammainc, gammaincc

from maskrec import estimator, harness, noise
from maskrec.harness import PRESETS, Scenario, build_pipeline, run_trials
from maskrec.locop import assemble_locop, spectrum, theta
from maskrec.maskgeom import Mask, disc_mask, measure
from maskrec.noise import filter_batch, sample_noise
from maskrec.tfcore import TFGrid, make_window, product_field
from maskrec.verify import (
    bank_plateau_violations,
    double_orthogonality_defect,
    eigen_expansion_defect,
    sigma_invariance_defect,
    theta_first_moment,
    trace_defect,
)

# Calibrated containment radii (continuous units) for the Figure-1 scale
# scenarios: at K = 20 the quarter-max threshold admits occasional interior
# dropouts, so the radius reflects the Monte Carlo operating point, not just
# the boundary blur.  Frozen from the calibration run documented in README.
CALIBRATED_R = {"figure1-left": 5.0, "figure1-right": 5.0}

# Criterion 9 cap on mean |error| / perimeter for the disc measure sweep
# (edge-count perimeter convention); calibrated, recorded with the suite.
RATIO_CAP = 0.15


def _report(num: int, name: str, passed: bool, details: str, budget_s: float, started: float):
    elapsed = time.perf_counter() - started
    line = (
        f"criterion {num:02d} [{name}]: {'PASS' if passed else 'FAIL'} "
        f"({details}; {elapsed:.1f}s of {budget_s:.0f}s budget)"
    )
    print(line)
    assert passed, line
    assert elapsed < budget_s, f"criterion {num} blew its runtime budget: {line}"


def _success_rate(scenario: Scenario, radius: float) -> float:
    pipeline = build_pipeline(replace(scenario, r_list=(radius,)))
    results, _ = run_trials(pipeline)
    return float(np.mean([r.success_at_r[0] for r in results]))


def test_c01_trace_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for n, count in ((16, 7), (32, 7), (64, 6)):
        grid = TFGrid(n)
        g = make_window(grid, "gaussian")
        for _ in range(count):
            mask = Mask(rng.random((n, n)) < rng.uniform(0.05, 0.8))
            worst = max(worst, trace_defect(mask, assemble_locop(mask, g)))
    _report(1, "trace identity", worst < 1e-9, f"max defect {worst:.2e} over 20 masks",
            10.0, started)


def test_c02_double_orthogonality():
    started = time.perf_counter()
    n = 16
    grid = TFGrid(n)
    g = make_window(grid, "gaussian")
    rng = np.random.default_rng(1002)
    worst = 0.0
    masks = [disc_mask(grid, 4.0)]
    for _ in range(3):
        masks.append(Mask(rng.random((n, n)) < 0.25))
    for mask in masks:
        spec = spectrum(assemble_locop(mask, g), measure(mask))
        worst = max(worst, double_orthogonality_defect(spec, mask, g, m_max=8))
    _report(2, "double orthogonality", worst < 1e-8, f"max defect {worst:.2e}",
            5.0, started)


def test_c03_theta_convolution_identity():
    started = time.perf_counter()
    worst = 0.0
    for n in (16, 32):
        grid = TFGrid(n)
        phi = make_window(grid, "gaussian")
        mask = disc_mask(grid, n / 4)
        for model_label in ("gaussian", "gaussian_t2"):
            g = make_window(grid, model_label)
            worst = max(worst, theta_first_moment(assemble_locop(mask, g), phi, mask, g))
    _report(3, "theta convolution identity", worst < 1e-8,
            f"max first-moment defect {worst:.2e}", 20.0, started)


def test_c04_eigenvalue_plateau_on_bank():
    started = time.perf_counter()
    counts = bank_plateau_violations()
    violations = [(name, count) for name, count in counts.items() if count]
    ok = len(counts) >= 4 and not violations
    _report(4, "eigenvalue plateau", ok,
            f"{len(counts)} bank masks pass largeness, violations {violations}",
            120.0, started)


def test_c05_noise_eigen_expansion():
    started = time.perf_counter()
    grid = TFGrid(16)
    mask = disc_mask(grid, 4.0)
    spec = spectrum(assemble_locop(mask, make_window(grid, "gaussian")), measure(mask))
    worst = eigen_expansion_defect(spec, sample_noise(grid, 10, 1.0, seed=1005).realizations)
    _report(5, "noise eigen-expansion", worst < 1e-9,
            f"max reconstruction defect {worst:.2e} over 10 realizations",
            5.0, started)


def test_c06_unbiasedness_rho_equals_theta():
    started = time.perf_counter()
    n = 32
    grid = TFGrid(n)
    g = make_window(grid, "gaussian")
    mask = disc_mask(grid, 8.0)
    H = assemble_locop(mask, g)
    spec = spectrum(H, measure(mask))
    th = theta(spec, g).values
    rows = sample_noise(grid, 2000, 1.0, seed=12345).realizations
    rho = estimator.average_spectrogram(filter_batch(rows, H), g).rho
    gap = float(np.max(np.abs(rho - th)))
    _report(6, "unbiasedness E{rho} = theta", gap < 0.05,
            f"sup-norm gap {gap:.4f} with 2000 realizations", 60.0, started)


def test_c07_noise_level_invariance():
    started = time.perf_counter()
    defects = []
    for preset in PRESETS.values():
        # the shared defect draws complex noise, as both presets do
        assert preset.noise_kind == noise.KIND_COMPLEX
        pipeline = build_pipeline(preset)
        defects += [
            sigma_invariance_defect(pipeline.H, pipeline.recon, preset.count,
                                    harness.trial_seed(preset.seed, trial))
            for trial in range(3)
        ]
    _report(7, "noise-level invariance", max(defects) == 0.0,
            "bit-identical masks across sigma in {0.1, 1, 10}, both presets",
            60.0, started)


def test_c08_figure1_containment():
    started = time.perf_counter()
    rates = {}
    for name in ("figure1-left", "figure1-right"):
        rates[name] = _success_rate(PRESETS[name], CALIBRATED_R[name])
    ok = all(rate >= 0.9 for rate in rates.values())
    details = ", ".join(
        f"{name}: {rate:.0%} at r={CALIBRATED_R[name]}" for name, rate in rates.items()
    )
    _report(8, "figure-1 containment", ok, details, 600.0, started)


def test_c09_perimeter_dominated_error(tmp_path):
    started = time.perf_counter()
    scenario = replace(PRESETS["figure1-left"], count=32, seed=11)
    rows = harness.run_sweep(scenario, "measure", [25.0, 50.0, 100.0], out_dir=tmp_path)
    ratios = [row["mean_ratio"] for row in rows]
    ok = max(ratios) <= 2.0 * min(ratios) and max(ratios) <= RATIO_CAP
    _report(9, "perimeter-dominated error", ok,
            "mean ratios " + ", ".join(f"{r:.4f}" for r in ratios)
            + f" (cap {RATIO_CAP})", 900.0, started)


# five rectangles of measure 25 whose perimeters grow from 20 to 32
_MEASURE_25_RECTS = (
    "rect:x0=88,f0=88,w=80,h=80", "rect:x0=64,f0=103,w=128,h=50",
    "rect:x0=48,f0=108,w=160,h=40", "rect:x0=28,f0=112,w=200,h=32",
    "rect:x0=0,f0=116,w=256,h=25",
)


def test_at_fixed_measure_the_error_grows_with_the_perimeter():
    # c09's discs grow their perimeter with their measure, so they cannot
    # tell the two apart; these rectangles hold the measure fixed.  The
    # inverse-variance-weighted least-squares slope of the mean sym_diff on
    # the perimeter measured 8.1 standard errors at seed 7, and 6.6-8.0 at
    # seeds 3, 5, 11 and 13
    base = Scenario(n=256, count=64, trials=40, seed=7)
    perimeters, means, variances = [], [], []
    for shape in _MEASURE_25_RECTS:
        pipeline = build_pipeline(replace(base, shape=shape))
        assert measure(pipeline.truth) == 25.0
        results, _ = run_trials(pipeline)
        sym = np.array([r.error.sym_diff_measure for r in results])
        perimeters.append(pipeline.truth.perimeter)
        means.append(sym.mean())
        variances.append(sym.var(ddof=1) / sym.size)
    assert perimeters == [20.0, 22.25, 25.0, 29.0, 32.0]
    x, y, w = np.array(perimeters), np.array(means), 1.0 / np.array(variances)
    centred = x - np.average(x, weights=w)
    slope = np.sum(w * centred * y) / np.sum(w * centred**2)
    standard_error = 1.0 / np.sqrt(np.sum(w * centred**2))
    print(f"sym_diff slope on perimeter {slope:.4f} ({slope / standard_error:.1f} SE); "
          "means " + ", ".join(f"{m:.3f}" for m in means))
    assert slope > 4.0 * standard_error


# Discs and rectangles of measures 100 and 25: curved and straight edges,
# one rectangle of them a full-width band
_PERIMETER_LAW_SHAPES = (
    "disc:measure=100", "disc:measure=25", "rect:x0=88,f0=88,w=80,h=80",
    "rect:x0=0,f0=116,w=256,h=25",
)

# A Gamma tail below this is below double precision next to 1, so its cell
# adds nothing the sum can hold; at most 65,536 such cells of measure 1/256
# a trial leave out less than 3e-14 of the predicted measure
_TAIL_FLOOR = 1e-16

# Over seeds 3, 5, 7, 11, 13, 17, 19, 23 and 29, all 72 cases read -1.29 to
# +1.68 SE, that is -5.2 % to +5.5 % of the measured mean.  The prediction
# reads high by +0.11 SE (+0.4 %) on average, and by +0.61 SE for the band
# at K = 20, since the level max rho / 4 rises with the rho it thresholds.
# 3 SE leaves a margin of 1.3 SE over the worst
_PERIMETER_LAW_Z = 3.0


def _predicted_sym_diffs(th, inside, count, levels, cell_measure):
    """The expected sym_diff measure at each level, from each cell's exact law.

    At unit noise variance rho(z) is Gamma(K, theta(z) / K), so a cell of
    the truth is missed with probability P(rho < level) and a cell outside
    it is taken with P(rho >= level).  A cell whose tail stays below
    :data:`_TAIL_FLOOR` at every level is skipped.
    """
    total = np.zeros(levels.size)
    for cells, tail, widest in ((inside, gammainc, levels.max()),
                                (~inside, gammaincc, levels.min())):
        scale = th[cells & (th > 0)] / count
        scale = scale[tail(count, widest / scale) >= _TAIL_FLOOR]
        total += tail(count, levels[:, None] / scale).sum(axis=1)
    return cell_measure * total


def test_the_mean_error_is_the_sum_of_the_exact_cell_laws_at_each_trials_level(tmp_path):
    # the perimeter law as a number: each trial's error is predicted at its
    # own level max rho / 4, from theta alone, and the mean over 60 trials
    # must match the measured mean within _PERIMETER_LAW_Z standard errors
    base = Scenario(n=256, trials=60, seed=7)
    cell_measure = TFGrid(base.n).cell_measure
    for shape in _PERIMETER_LAW_SHAPES:
        scenario = replace(base, shape=shape)
        pipeline = build_pipeline(scenario)
        th = product_field(pipeline.H, pipeline.H, pipeline.recon)
        for row in harness.run_sweep(scenario, "K", [20, 64], out_dir=tmp_path):
            sym = np.array([r.error.sym_diff_measure for r in row["results"]])
            levels = np.array([r.max_rho / 4.0 for r in row["results"]])
            predicted = _predicted_sym_diffs(
                th, pipeline.truth.cells, row["value"], levels, cell_measure
            ).mean()
            standard_error = sym.std(ddof=1) / np.sqrt(sym.size)
            assert abs(predicted - sym.mean()) <= _PERIMETER_LAW_Z * standard_error, (
                shape, row["value"], sym.mean(), predicted, standard_error,
            )


def test_c10_logarithmic_measurement_sufficiency(tmp_path):
    started = time.perf_counter()
    radius = CALIBRATED_R["figure1-left"]
    scenario = replace(PRESETS["figure1-left"], seed=13, r_list=(radius,))
    rows = harness.run_sweep(scenario, "K", [4, 8, 16, 32, 64], out_dir=tmp_path)
    medians = [row["median_sym_diff"] for row in rows]
    omega = 100.0
    inversions = [
        max(0.0, medians[i + 1] - medians[i]) for i in range(len(medians) - 1)
    ]
    big_inversions = [v for v in inversions if v > 0]
    monotone = len(big_inversions) <= 1 and all(v <= 0.05 * omega for v in big_inversions)
    success = {int(row["value"]): row["success_rates"][0] for row in rows}
    ok = monotone and success[64] >= success[8]
    _report(10, "log-K sufficiency", ok,
            "median sym-diff " + ", ".join(f"{m:.2f}" for m in medians)
            + f"; success K=8 {success[8]:.0%} -> K=64 {success[64]:.0%}",
            900.0, started)


def test_c11_real_noise_pipeline():
    started = time.perf_counter()
    radius = CALIBRATED_R["figure1-left"]
    complex_rate = _success_rate(PRESETS["figure1-left"], radius)
    real_scenario = replace(PRESETS["figure1-left"], noise_kind=noise.KIND_REAL)
    real_rate = _success_rate(real_scenario, radius)
    gap = abs(real_rate - complex_rate)
    _report(11, "real-noise pipeline", gap <= 0.10,
            f"complex K=20 {complex_rate:.0%} vs real K=20 {real_rate:.0%} "
            f"(gap {gap:.0%})", 600.0, started)

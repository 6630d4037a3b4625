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
import pytest

from maskrec import estimator, harness, locop, maskgeom, noise, tfcore
from maskrec.harness import PRESETS, SPECTRUM_BANK, Scenario, build_pipeline, run_trials
from maskrec.locop import (
    assemble_locop,
    check_largeness,
    double_orthogonality_defect,
    plateau_violations,
    spectrum,
    theta,
    theta_first_moment,
)
from maskrec.maskgeom import Mask, disc_mask, make_mask, measure
from maskrec.noise import eigen_coefficients, filter_batch, sample_noise
from maskrec.tfcore import TFGrid, make_window

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
            H = assemble_locop(mask, g)
            worst = max(worst, abs(float(np.trace(H).real) - measure(mask)))
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
            spec = spectrum(assemble_locop(mask, g), measure(mask))
            worst = max(worst, theta_first_moment(spec, phi, mask, g))
    _report(3, "theta convolution identity", worst < 1e-8,
            f"max first-moment defect {worst:.2e}", 20.0, started)


def test_c04_eigenvalue_plateau_on_bank():
    started = time.perf_counter()
    passing = 0
    violations = []
    for name, n, shape in SPECTRUM_BANK:
        grid = TFGrid(n)
        mask = make_mask(grid, shape)
        g = make_window(grid, "gaussian")
        outcome = check_largeness(mask, g)
        if not outcome.passed:
            continue
        passing += 1
        spec = spectrum(assemble_locop(mask, g), measure(mask))
        count = plateau_violations(spec)
        if count:
            violations.append((name, count))
    ok = passing >= 4 and not violations
    _report(4, "eigenvalue plateau", ok,
            f"{passing} bank masks pass largeness, violations {violations}",
            120.0, started)


def test_c05_noise_eigen_expansion():
    started = time.perf_counter()
    n = 16
    grid = TFGrid(n)
    g = make_window(grid, "gaussian")
    mask = disc_mask(grid, 4.0)
    H = assemble_locop(mask, g)
    spec = spectrum(H, measure(mask))
    batch = sample_noise(grid, 10, 1.0, seed=1005)
    filtered = filter_batch(batch, H)
    coeffs = eigen_coefficients(batch, spec)
    rebuilt = (coeffs * spec.eigenvalues) @ spec.eigenvectors.T
    worst = float(np.max(np.abs(filtered - rebuilt)))
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
    batch = sample_noise(grid, 2000, 1.0, seed=12345)
    rho = estimator.average_spectrogram(filter_batch(batch, H), g).rho
    gap = float(np.max(np.abs(rho - th)))
    _report(6, "unbiasedness E{rho} = theta", gap < 0.05,
            f"sup-norm gap {gap:.4f} with 2000 realizations", 60.0, started)


def test_c07_noise_level_invariance():
    started = time.perf_counter()
    identical = True
    for preset_name, preset in PRESETS.items():
        pipeline = build_pipeline(replace(preset, trials=3))
        for trial in range(3):
            seed = harness.trial_seed(preset.seed, trial)
            reference = None
            for sigma in (0.1, 1.0, 10.0):
                batch = sample_noise(
                    pipeline.grid, preset.count, sigma, kind=preset.noise_kind, seed=seed
                )
                est = estimator.estimate_mask(
                    estimator.average_spectrogram(
                        filter_batch(batch, pipeline.H), pipeline.recon
                    )
                )
                if reference is None:
                    reference = est.cells
                elif not np.array_equal(est.cells, reference):
                    identical = False
    _report(7, "noise-level invariance", identical,
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
    real_scenario = replace(
        PRESETS["figure1-left"], noise_kind=noise.KIND_REAL, count=40
    )
    real_rate = _success_rate(real_scenario, radius)
    gap = abs(real_rate - complex_rate)
    _report(11, "real-noise pipeline", gap <= 0.10,
            f"complex K=20 {complex_rate:.0%} vs real K=40 {real_rate:.0%} "
            f"(gap {gap:.0%})", 600.0, started)

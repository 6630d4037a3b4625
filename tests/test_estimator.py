import dataclasses
import inspect

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import gammainc, gammaincc
from scipy.stats import kstest

from maskrec import errors, estimator
from maskrec.estimator import (
    AvgSpectrogram,
    average_spectrogram,
    estimate_mask,
)
from maskrec.harness import Scenario, build_pipeline, trial_seed
from maskrec.locop import assemble_locop, spectrum, theta
from maskrec.maskgeom import disc_mask, measure
from maskrec.noise import complexify, filter_batch, sample_noise
from maskrec.tfcore import TFGrid, make_window

from helpers import brute_stft, gathered_field


def _pipeline(n=32, mask_measure=8.0, seed=41, count=16, sigma=1.0, kind="complex"):
    grid = TFGrid(n)
    g = make_window(grid, "gaussian")
    mask = disc_mask(grid, mask_measure)
    H = assemble_locop(mask, g)
    rows = sample_noise(grid, count, sigma, kind=kind, seed=seed).realizations
    return grid, g, mask, H, rows


@pytest.mark.parametrize("n", [16, 17, 64, 65, 256])
def test_rho_equals_the_gathered_field_of_the_covariance(n):
    # the oracle forms the n x n sample covariance and gathers its lag band;
    # BLAS tiling differs between machines, so the bound is relative
    grid = TFGrid(n)
    g = make_window(grid, "gaussian")
    H = assemble_locop(disc_mask(grid, n / 8), g)
    for count in (1, 2, 5, 20, 64):
        filtered = filter_batch(sample_noise(grid, count, 1.0, seed=n + count).realizations, H)
        rho = average_spectrogram(filtered, g).rho
        want = gathered_field(filtered.T @ np.conj(filtered), g) / count
        assert np.max(np.abs(rho - want)) <= 1e-13 * np.max(np.abs(want)), count


def test_average_spectrogram_of_zeros():
    grid = TFGrid(16)
    phi = make_window(grid, "gaussian")
    avg = average_spectrogram(np.zeros((3, 16), complex), phi)
    assert np.all(avg.rho == 0.0)
    assert avg.count == 3


def test_average_spectrogram_rejects_empty():
    phi = make_window(TFGrid(16), "gaussian")
    with pytest.raises(errors.ConfigurationError):
        average_spectrogram(np.zeros((0, 16), complex), phi)


def test_average_spectrogram_length_mismatch():
    phi = make_window(TFGrid(16), "gaussian")
    with pytest.raises(errors.ConfigurationError):
        average_spectrogram(np.zeros((2, 8), complex), phi)


@pytest.mark.parametrize("n", [8, 16])
def test_rho_matches_brute_spectrograms(n):
    grid = TFGrid(n)
    phi = make_window(grid, "gaussian")
    rng = np.random.default_rng(40 + n)
    ys = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    expected = np.mean([n * np.abs(brute_stft(y, phi.samples)) ** 2 for y in ys], axis=0)
    rho = average_spectrogram(ys, phi).rho
    assert np.max(np.abs(rho - expected)) < 1e-12 * expected.max()


def test_sigma_squared_scaling_of_rho():
    _, phi, _, H, rows = _pipeline(count=6)
    filtered = filter_batch(rows, H)
    rho1 = average_spectrogram(filtered, phi).rho
    rho2 = average_spectrogram(2.0 * filtered, phi).rho
    assert np.array_equal(rho2, 4.0 * rho1)


def test_rho_concentrates_on_theta():
    # loose concentration sanity at K = 300; the tight 0.05 band at
    # K = 2000 is asserted by the acceptance suite
    grid, phi, mask, H, rows = _pipeline(count=300, seed=42)
    filtered = filter_batch(rows, H)
    rho = average_spectrogram(filtered, phi).rho
    spec = spectrum(H, measure(mask))
    th = theta(spec, phi).values
    assert np.max(np.abs(rho - th)) < 0.15


# each filtered row's STFT at z is circular complex Gaussian with mean power
# variance * theta(z), for any pair of windows; real noise is paired into
# K' = 4 rows of variance 2.  So rho(z), the mean of `shape` such powers, is
# Gamma(shape, scale variance * theta / shape)
_GAMMA_LAW_ROWS = pytest.mark.parametrize(
    "kind, model, shape, variance",
    [("complex", "gaussian", 8, 1.0), ("complex", "gaussian_t2", 8, 1.0),
     ("real", "gaussian_t2", 4, 2.0)],
)


def _gamma_law_trials(kind, model):
    """The truth cells, theta and a generator of the rho of 1000 trials at
    n=64, ``disc:measure=8``, K=8, seeded by ``trial_seed``; nothing is
    drawn before the generator is read."""
    scenario = Scenario(n=64, shape="disc:measure=8", model_window=model,
                        count=8, noise_kind=kind, trials=1000)
    pipeline = build_pipeline(scenario)
    th = theta(spectrum(pipeline.H, measure(pipeline.truth)), pipeline.recon).values

    def rhos():
        for trial in range(scenario.trials):
            y = sample_noise(pipeline.grid, scenario.count, scenario.sigma, kind=kind,
                             seed=trial_seed(scenario.seed, trial)).realizations
            if kind == "real":
                y = complexify(y)
            yield average_spectrogram(filter_batch(y, pipeline.H), pipeline.recon).rho

    return pipeline.truth.cells, th, rhos()


@_GAMMA_LAW_ROWS
def test_rho_follows_its_exact_gamma_law(kind, model, shape, variance):
    # cells far from the disc have theta = 0, so the three cells all have
    # theta > 0.1
    _, th, rhos = _gamma_law_trials(kind, model)
    cells = [np.unravel_index(np.argmax(th), th.shape)] + [
        np.unravel_index(np.argmin(np.abs(th - level)), th.shape) for level in (0.5, 0.2)
    ]
    picked = [[rho[cell] for cell in cells] for rho in rhos]
    for cell, values in zip(cells, np.transpose(picked)):
        assert th[cell] > 0.1
        law = (shape, 0.0, variance * th[cell] / shape)
        assert kstest(values, "gamma", args=law).pvalue >= 0.01, (cell, th[cell])


@_GAMMA_LAW_ROWS
def test_fixed_level_counts_match_their_exact_gamma_sums(kind, model, shape, variance):
    # at a fixed level delta, the expected misses in the disc and false
    # positives outside it are sums of Gamma tails over the cells.  Cells far
    # from the disc have theta = 0 up to rounding (some read below 0) and never
    # reach the level set, so the sums skip every cell with theta <= 0.  Each
    # count gets its own delta, set from the law before anything is drawn so
    # that it expects 10 cells a trial
    truth, th, rhos = _gamma_law_trials(kind, model)
    scale = variance * th / shape

    def expected_misses(delta):
        return gammainc(shape, delta / scale[truth & (th > 0)]).sum()

    def expected_false_positives(delta):
        return gammaincc(shape, delta / scale[~truth & (th > 0)]).sum()

    # at ten times the largest mean, every cell's lower tail is about 1 and
    # every upper tail about 0, so each root lies between 0 and there
    top = 10.0 * variance * th.max()
    miss_level = brentq(lambda delta: expected_misses(delta) - 10.0, 0.0, top)
    false_level = brentq(lambda delta: expected_false_positives(delta) - 10.0, 0.0, top)
    counts = np.array([
        (np.count_nonzero(rho[truth] < miss_level), np.count_nonzero(rho[~truth] >= false_level))
        for rho in rhos
    ])
    for got, want in zip(counts.T, (expected_misses(miss_level),
                                    expected_false_positives(false_level))):
        standard_error = got.std(ddof=1) / np.sqrt(got.size)
        assert abs(got.mean() - want) <= 4.0 * standard_error, (got.mean(), want, standard_error)


def test_estimate_mask_on_idealized_indicator():
    grid = TFGrid(16)
    phi = make_window(grid, "gaussian")
    disc = disc_mask(grid, 4.0)
    avg = AvgSpectrogram(rho=disc.cells.astype(float), count=1)
    est = estimate_mask(avg)
    assert np.array_equal(est.cells, disc.cells)
    assert est.threshold == pytest.approx(0.25)


def test_estimate_mask_includes_threshold_ties():
    rho = np.full((16, 16), 0.1)
    rho[0, 0] = 1.0
    rho[3, 3] = 0.25  # exactly max/4: tie is included
    est = estimate_mask(AvgSpectrogram(rho=rho, count=1))
    assert est.cells[0, 0] and est.cells[3, 3]
    assert est.cells.sum() == 2


def test_estimate_mask_scale_free():
    _, phi, _, H, rows = _pipeline(count=8)
    filtered = filter_batch(rows, H)
    est1 = estimate_mask(average_spectrogram(filtered, phi))
    est2 = estimate_mask(average_spectrogram(np.float64(7.5) * filtered, phi))
    assert np.array_equal(est1.cells, est2.cells)


def test_estimate_mask_bit_identical_across_sigma():
    grid = TFGrid(32)
    phi = make_window(grid, "gaussian")
    mask = disc_mask(grid, 8.0)
    H = assemble_locop(mask, make_window(grid, "gaussian"))
    reference = None
    # the ends of noise.SIGMA_RANGE included
    for sigma in (1e-100, 0.1, 1.0, 10.0, 1e100):
        rows = sample_noise(grid, 12, sigma, seed=43).realizations
        est = estimate_mask(average_spectrogram(filter_batch(rows, H), phi))
        if reference is None:
            reference = est.cells
        assert np.array_equal(est.cells, reference)


def test_estimate_mask_degenerate_zero():
    avg = AvgSpectrogram(rho=np.zeros((16, 16)), count=1)
    with pytest.raises(errors.NumericError):
        estimate_mask(avg)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_estimate_mask_rejects_a_non_finite_sample(bad):
    # one bad sample spreads through the covariance; an empty mask with
    # max_rho = nan must not reach trials.csv
    _, phi, _, H, rows = _pipeline(count=4)
    filtered = filter_batch(rows, H)
    filtered[1, 5] = bad
    with np.errstate(invalid="ignore"), pytest.raises(errors.NumericError):
        estimate_mask(average_spectrogram(filtered, phi))


def test_complexify_commutes_with_filtering():
    grid, phi, mask, H, rows = _pipeline(count=8, kind="real", seed=48)
    via_pairs = filter_batch(complexify(rows), H)
    filtered = filter_batch(rows, H)
    half = len(rows) // 2
    via_filter = filtered[:half] + 1j * filtered[half : 2 * half]
    assert np.max(np.abs(via_pairs - via_filter)) < 1e-12


def test_estimation_path_never_sees_sigma():
    # the threshold is relative, so no estimator signature or body may
    # consult a noise level, and the averaged field carries none
    assert list(inspect.signature(average_spectrogram).parameters) == ["filtered", "phi"]
    assert "sigma" not in inspect.getsource(average_spectrogram)
    assert not any("sigma" in f.name for f in dataclasses.fields(AvgSpectrogram))
    assert "sigma" not in inspect.signature(estimate_mask).parameters
    assert "sigma" not in inspect.getsource(estimate_mask)

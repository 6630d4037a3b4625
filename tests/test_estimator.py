import dataclasses
import inspect

import numpy as np
import pytest

from maskrec import errors, estimator
from maskrec.estimator import (
    AvgSpectrogram,
    average_spectrogram,
    estimate_mask,
)
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
    batch = sample_noise(grid, count, sigma, kind=kind, seed=seed)
    return grid, g, mask, H, batch


@pytest.mark.parametrize("n", [16, 17, 64, 65, 256])
def test_rho_equals_the_gathered_field_of_the_covariance(n):
    # the oracle forms the n x n sample covariance and gathers its lag band;
    # BLAS tiling differs between machines, so the bound is relative
    grid = TFGrid(n)
    g = make_window(grid, "gaussian")
    H = assemble_locop(disc_mask(grid, n / 8), g)
    for count in (1, 2, 5, 20, 64):
        filtered = filter_batch(sample_noise(grid, count, 1.0, seed=n + count), H)
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
    _, phi, _, H, batch = _pipeline(count=6)
    filtered = filter_batch(batch, H)
    rho1 = average_spectrogram(filtered, phi).rho
    rho2 = average_spectrogram(2.0 * filtered, phi).rho
    assert np.array_equal(rho2, 4.0 * rho1)


def test_rho_concentrates_on_theta():
    # loose concentration sanity at K = 300; the tight 0.05 band at
    # K = 2000 is asserted by the acceptance suite
    grid, phi, mask, H, batch = _pipeline(count=300, seed=42)
    filtered = filter_batch(batch, H)
    rho = average_spectrogram(filtered, phi).rho
    spec = spectrum(H, measure(mask))
    th = theta(spec, phi).values
    assert np.max(np.abs(rho - th)) < 0.15


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
    _, phi, _, H, batch = _pipeline(count=8)
    filtered = filter_batch(batch, H)
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
        batch = sample_noise(grid, 12, sigma, seed=43)
        est = estimate_mask(average_spectrogram(filter_batch(batch, H), phi))
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
    _, phi, _, H, batch = _pipeline(count=4)
    filtered = filter_batch(batch, H)
    filtered[1, 5] = bad
    with np.errstate(invalid="ignore"), pytest.raises(errors.NumericError):
        estimate_mask(average_spectrogram(filtered, phi))


def test_complexify_commutes_with_filtering():
    grid, phi, mask, H, batch = _pipeline(count=8, kind="real", seed=48)
    via_pairs = filter_batch(complexify(batch), H)
    filtered = filter_batch(batch, H)
    half = batch.count // 2
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

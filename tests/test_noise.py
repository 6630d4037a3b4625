import random

import numpy as np
import pytest
from scipy.stats import kstest

from maskrec import errors, noise
from maskrec.locop import assemble_locop, spectrum
from maskrec.maskgeom import disc_mask
from maskrec.noise import complexify, eigen_coefficients, filter_batch, sample_noise
from maskrec.tfcore import TFGrid, make_window

from helpers import oracle_noise

GRID64 = TFGrid(64)


def test_complex_noise_second_moment():
    # 1000 x 64 = 64000 draws of |N|^2 ~ Exp(1): the 5-sigma CLT band is
    # 1 +- 5/sqrt(64000) ~ +-0.0198; the pinned seed lands well inside
    batch = sample_noise(GRID64, 1000, 1.0, kind="complex", seed=101)
    mean_power = np.mean(np.abs(batch.realizations) ** 2)
    assert abs(mean_power - 1.0) < 5 / np.sqrt(64000)
    assert abs(mean_power - 1.0) < 0.01  # spec operating band, fixed verdict


def test_complex_noise_vanishing_pseudo_covariance():
    # E{N(z) N(w)} = 0, in particular E{N^2} = 0: 5-sigma CLT band on the
    # mean of N^2 over 64000 draws (|N^2| has unit second moment)
    batch = sample_noise(GRID64, 1000, 1.0, kind="complex", seed=103)
    pseudo = np.mean(batch.realizations**2)
    assert abs(pseudo) < 5 / np.sqrt(64000)


def test_real_noise_second_moment():
    batch = sample_noise(GRID64, 1000, 1.0, kind="real", seed=102)
    assert np.max(np.abs(batch.realizations.imag)) == 0.0
    mean_power = np.mean(batch.realizations.real**2)
    # Var((N^2)) = 2 for the standard normal: band 1 +- 5*sqrt(2/64000)
    assert abs(mean_power - 1.0) < 5 * np.sqrt(2 / 64000)


@pytest.mark.parametrize("kind", ["complex", "real"])
@pytest.mark.parametrize("count", [1, 4, 20, 64])
def test_noise_matches_per_realization_generators_bit_for_bit(kind, count):
    for n, sigma, seed in ((16, 1.0, 0), (64, 0.37, 7), (17, 3.5, 2**63 + 11)):
        batch = sample_noise(TFGrid(n), count, sigma, kind=kind, seed=seed)
        expected = oracle_noise(n, count, sigma, kind, seed)
        assert batch.realizations.dtype == np.complex128
        assert batch.realizations.tobytes() == expected.tobytes()


def test_same_seed_same_batch():
    a = sample_noise(GRID64, 8, 1.0, seed=7)
    b = sample_noise(GRID64, 8, 1.0, seed=7)
    assert np.array_equal(a.realizations, b.realizations)


def test_realizations_keyed_by_index_not_count():
    # the first K rows of a larger batch are the K-row batch, bit for bit
    for kind in ("complex", "real"):
        a = sample_noise(GRID64, 4, 0.7, kind=kind, seed=7)
        b = sample_noise(GRID64, 6, 0.7, kind=kind, seed=7)
        assert a.realizations.tobytes() == b.realizations[:4].tobytes()


def test_sample_reads_no_os_entropy(monkeypatch):
    # numpy seeds a generator built without a seed from os.urandom, which it
    # reaches through secrets.randbits and random._urandom
    reads = []
    urandom = random._urandom

    def counting(size):
        reads.append(size)
        return urandom(size)

    monkeypatch.setattr(random, "_urandom", counting)
    sample_noise(GRID64, 3, 1.0, seed=7)
    sample_noise(GRID64, 2, 1.0, kind="real", seed=8)
    assert reads == []


def test_sigma_scaling_is_exact():
    a = sample_noise(GRID64, 8, 1.0, seed=9)
    b = sample_noise(GRID64, 8, 2.0, seed=9)
    assert np.array_equal(b.realizations, 2.0 * a.realizations)


# the last two sigmas lie one step outside noise.SIGMA_RANGE
@pytest.mark.parametrize(
    "count,sigma",
    [(0, 1.0), (3, 0.0), (3, -1.0),
     (3, np.nextafter(1e-100, 0.0)), (3, np.nextafter(1e100, np.inf))],
)
def test_sample_rejects_bad_parameters(count, sigma):
    with pytest.raises(errors.ConfigurationError):
        sample_noise(GRID64, count, sigma)


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
def test_sample_rejects_non_finite_sigma(sigma):
    with pytest.raises(errors.ConfigurationError, match="finite"):
        sample_noise(GRID64, 3, sigma)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_sample_rejects_seeds_outside_64_bits(seed):
    # masking would alias -1 to 2**64 - 1 and 2**64 + 5 to 5
    with pytest.raises(errors.ConfigurationError, match="seed"):
        sample_noise(GRID64, 3, 1.0, seed=seed)
    edge = sample_noise(GRID64, 3, 1.0, seed=2**64 - 1)
    assert edge.realizations.tobytes() == oracle_noise(64, 3, 1.0, "complex", 2**64 - 1).tobytes()


@pytest.mark.parametrize("count", [2.5, 3.0, "3", None])
def test_sample_rejects_a_count_that_is_not_an_integer(count):
    with pytest.raises(errors.ConfigurationError, match="integers"):
        sample_noise(GRID64, count, 1.0)


def test_sample_takes_numpy_integers():
    a = sample_noise(GRID64, np.int64(3), 1.0, seed=np.uint64(2**64 - 1))
    b = sample_noise(GRID64, 3, 1.0, seed=2**64 - 1)
    assert np.array_equal(a.realizations, b.realizations)


def test_sample_rejects_unknown_kind():
    with pytest.raises(errors.ConfigurationError):
        sample_noise(GRID64, 4, 1.0, kind="pink")


# --------------------------------------------------------------- complexify


def test_complexify_pairs_k4():
    batch = sample_noise(GRID64, 4, 1.0, kind="real", seed=11)
    paired = complexify(batch)
    assert paired.count == 2
    r = batch.realizations
    assert np.array_equal(paired.realizations[0], r[0] + 1j * r[2])
    assert np.array_equal(paired.realizations[1], r[1] + 1j * r[3])
    assert paired.kind == noise.KIND_COMPLEX


def test_complexify_k5_drops_last():
    batch = sample_noise(GRID64, 5, 1.0, kind="real", seed=12)
    paired = complexify(batch)
    assert paired.count == 2
    r = batch.realizations
    assert np.array_equal(paired.realizations[1], r[1] + 1j * r[3])


def test_complexify_doubles_variance():
    batch = sample_noise(GRID64, 1000, 1.0, kind="real", seed=13)
    paired = complexify(batch)
    mean_power = np.mean(np.abs(paired.realizations) ** 2)
    # 500 x 64 paired draws, each |N'|^2 with variance 4: 5-sigma band
    assert abs(mean_power - 2.0) < 5 * np.sqrt(4 / (500 * 64))


def test_complexify_rejects_complex_noise():
    batch = sample_noise(GRID64, 8, 1.0, kind="complex", seed=47)
    with pytest.raises(errors.ConfigurationError, match="real noise"):
        complexify(batch)


def test_complexify_requires_two():
    batch = sample_noise(GRID64, 1, 1.0, kind="real", seed=14)
    with pytest.raises(errors.ConfigurationError):
        complexify(batch)


def test_complexify_rejects_double_application():
    batch = sample_noise(GRID64, 4, 1.0, kind="real", seed=15)
    with pytest.raises(errors.ConfigurationError, match="needs real noise, got 'complex'"):
        complexify(complexify(batch))


# ------------------------------------------------------------------ filtering


def test_filter_zero_and_identity():
    batch = sample_noise(GRID64, 4, 1.0, seed=16)
    assert np.all(filter_batch(batch, np.zeros((64, 64))) == 0)
    assert np.array_equal(filter_batch(batch, np.eye(64)), batch.realizations)


def test_filter_dimension_mismatch():
    batch = sample_noise(GRID64, 4, 1.0, seed=17)
    with pytest.raises(errors.ConfigurationError):
        filter_batch(batch, np.eye(32))


def test_filter_scaling_equivariance():
    # power-of-two scales commute with the matmul bit-for-bit; other scales
    # commute up to one rounding per accumulation step
    H = np.diag(np.linspace(0, 1, 64))
    a = sample_noise(GRID64, 6, 1.0, seed=18)
    b = sample_noise(GRID64, 6, 2.0, seed=18)
    assert np.array_equal(filter_batch(b, H), 2.0 * filter_batch(a, H))
    c = sample_noise(GRID64, 6, 3.0, seed=18)
    lhs = filter_batch(c, H)
    rhs = 3.0 * filter_batch(a, H)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


# --------------------------------------------------------------- coefficients


def test_coefficient_variance_and_independence():
    n = 16
    grid = TFGrid(n)
    g = make_window(grid, "gaussian")
    spec = spectrum(assemble_locop(disc_mask(grid, 4.0), g), 4.0)
    batch = sample_noise(grid, 1000, 1.0, seed=20)
    coeffs = eigen_coefficients(batch, spec)
    powers = np.mean(np.abs(coeffs) ** 2, axis=0)
    # per-mode power over K = 1000 draws; pinned seed keeps the verdict fixed
    assert np.all(np.abs(powers - 1.0) < 0.1)
    c1, c2 = coeffs[:, 0], coeffs[:, 1]
    corr = np.mean(c1 * np.conj(c2))
    assert abs(corr) < 0.1


def test_coefficients_deterministic():
    n = 16
    grid = TFGrid(n)
    g = make_window(grid, "gaussian")
    spec = spectrum(assemble_locop(disc_mask(grid, 4.0), g), 4.0)
    a = eigen_coefficients(sample_noise(grid, 5, 1.0, seed=21), spec)
    b = eigen_coefficients(sample_noise(grid, 5, 1.0, seed=21), spec)
    assert np.array_equal(a, b)


def test_parseval_identity():
    n = 16
    grid = TFGrid(n)
    g = make_window(grid, "gaussian")
    spec = spectrum(assemble_locop(disc_mask(grid, 4.0), g), 4.0)
    batch = sample_noise(grid, 20, 1.5, seed=22)
    coeffs = eigen_coefficients(batch, spec)
    lhs = np.sum(np.abs(coeffs) ** 2, axis=1)
    rhs = np.sum(np.abs(batch.realizations) ** 2, axis=1)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_unitary_invariance_ks():
    # rotating complex white noise by a fixed unitary leaves the moduli
    # Rayleigh(1/sqrt(2)); KS at the 1e-3 level with a pinned seed
    n = 32
    grid = TFGrid(n)
    rng = np.random.default_rng(23)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    batch = sample_noise(grid, 200, 1.0, seed=24)
    rotated = batch.realizations @ Q.T
    stat = kstest(np.abs(rotated).ravel(), "rayleigh", args=(0, 1 / np.sqrt(2)))
    assert stat.pvalue >= 1e-3
    # negative control at the wrong scale must be rejected
    bad = kstest(np.abs(2.0 * rotated).ravel(), "rayleigh", args=(0, 1 / np.sqrt(2)))
    assert bad.pvalue < 1e-3

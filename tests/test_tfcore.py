import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from maskrec import errors, tfcore
from maskrec.maskgeom import _cell_distances_sq
from maskrec.tfcore import TFGrid, istft, make_window, stft
from maskrec.verify import _reproducing_defect

from helpers import (
    brute_istft,
    brute_locop,
    brute_stft,
    gather_lag_plan,
    gather_translates,
    gathered_field,
    lag_band_of_product,
    zero_fill_mask_operator,
)


def test_grid_rejects_tiny_n():
    with pytest.raises(errors.ConfigurationError):
        TFGrid(3)


def test_grid_cell_accounting():
    grid = TFGrid(64)
    assert grid.cell_measure * grid.n**2 == pytest.approx(grid.n)
    assert grid.cell_side == pytest.approx(1 / np.sqrt(64))


@pytest.mark.parametrize("n", [16, 64, 100])
def test_gaussian_window_unit_norm(n):
    w = make_window(TFGrid(n), "gaussian")
    assert abs(np.linalg.norm(w.samples) - 1.0) < 1e-12


def test_gaussian_window_real_and_symmetric():
    w = make_window(TFGrid(64), "gaussian")
    assert np.max(np.abs(w.samples.imag)) == 0.0
    # even about the center index 32: g[32+j] == g[32-j]
    j = np.arange(1, 32)
    assert np.max(np.abs(w.samples[32 + j] - w.samples[32 - j])) < 1e-12


def test_gaussian_t2_vanishes_at_center():
    w = make_window(TFGrid(64), "gaussian_t2")
    assert w.samples[32] == 0.0
    assert abs(np.linalg.norm(w.samples) - 1.0) < 1e-12


def test_unknown_window_label():
    with pytest.raises(errors.ConfigurationError):
        make_window(TFGrid(16), "hann")


def test_window_rejects_bad_norm():
    with pytest.raises(errors.ConfigurationError):
        tfcore.Window(samples=np.ones(8))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan), complex(-np.inf, 0.0)])
def test_window_rejects_non_finite_samples(bad):
    samples = np.full(8, 0.5, dtype=complex)
    samples[3] = bad
    with pytest.raises(errors.ConfigurationError, match="finite"):
        tfcore.Window(samples=samples)


@pytest.mark.parametrize("samples", [np.ones(1), np.ones(3) / np.sqrt(3)])
def test_window_rejects_fewer_than_4_samples(samples):
    with pytest.raises(errors.ConfigurationError, match="at least 4"):
        tfcore.Window(samples=samples)


@pytest.mark.parametrize("samples", [np.ones((2, 8)) / 4.0, np.array(1.0)])
def test_window_rejects_samples_that_are_not_a_vector(samples):
    with pytest.raises(errors.ConfigurationError, match="1-D"):
        tfcore.Window(samples=samples)


def test_window_samples_are_a_read_only_copy():
    source = np.ones(8, dtype=complex) / np.sqrt(8)
    w = tfcore.Window(samples=source)
    source[0] = 5.0
    assert w.samples[0] == 1 / np.sqrt(8)
    with pytest.raises(ValueError):
        w.samples[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.samples = np.ones(8) / np.sqrt(8)


def test_stft_of_window_with_itself_at_origin():
    n = 16
    g = make_window(TFGrid(n), "gaussian")
    V = stft(g.samples, g)
    assert V[0, 0] == pytest.approx(n**-0.5, abs=1e-12)


def test_stft_of_zero_signal():
    g = make_window(TFGrid(16), "gaussian")
    V = stft(np.zeros(16, complex), g)
    assert np.all(V == 0)


def test_stft_of_delta_matches_window_modulus():
    n = 16
    g = make_window(TFGrid(n), "gaussian")
    delta = np.zeros(n, complex)
    delta[0] = 1.0
    V = stft(delta, g)
    expected = np.abs(g.samples[(-np.arange(n)) % n]) / np.sqrt(n)
    assert np.max(np.abs(np.abs(V) - expected[:, None])) < 1e-12


def test_stft_matches_brute_force():
    n = 16
    rng = np.random.default_rng(3)
    g = make_window(TFGrid(n), "gaussian")
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.max(np.abs(stft(f, g) - brute_stft(f, g.samples))) < 1e-12


def test_stft_length_mismatch():
    g = make_window(TFGrid(16), "gaussian")
    with pytest.raises(errors.ConfigurationError):
        stft(np.zeros(8, complex), g)


def test_istft_inverts_on_range():
    n = 32
    rng = np.random.default_rng(4)
    g = make_window(TFGrid(n), "gaussian")
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.max(np.abs(istft(stft(f, g), g) - f)) < 1e-10


def test_istft_zero():
    n = 16
    g = make_window(TFGrid(n), "gaussian")
    out = istft(np.zeros((n, n), complex), g)
    assert np.all(out == 0)


def test_istft_matches_brute_adjoint():
    n = 16
    g = make_window(TFGrid(n), "gaussian")
    delta = np.zeros(n, complex)
    delta[0] = 1.0
    V = stft(delta, g)
    recovered = istft(V, g)
    assert np.max(np.abs(recovered - delta)) < 1e-10
    assert np.max(np.abs(recovered - brute_istft(V, g.samples))) < 1e-10


def test_istft_grid_mismatch():
    g = make_window(TFGrid(16), "gaussian")
    with pytest.raises(errors.ConfigurationError):
        istft(np.zeros((8, 8), complex), g)


def test_isometry_over_random_signals():
    n = 32
    rng = np.random.default_rng(5)
    g = make_window(TFGrid(n), "gaussian")
    signals = rng.standard_normal((100, n)) + 1j * rng.standard_normal((100, n))
    V = stft(signals, g)
    energy = np.sum(np.abs(V) ** 2, axis=(1, 2))
    assert np.max(np.abs(energy - np.sum(np.abs(signals) ** 2, axis=1))) < 1e-10


def test_stft_of_a_stack_is_the_stack_of_transforms():
    n = 16
    rng = np.random.default_rng(12)
    g = make_window(TFGrid(n), "gaussian")
    signals = rng.standard_normal((2, 3, n)) + 1j * rng.standard_normal((2, 3, n))
    V = stft(signals, g)
    assert V.shape == (2, 3, n, n)
    for i in range(2):
        for j in range(3):
            assert np.max(np.abs(V[i, j] - brute_stft(signals[i, j], g.samples))) < 1e-12


def test_shift_covariance():
    n = 32
    rng = np.random.default_rng(6)
    grid = TFGrid(n)
    g = make_window(grid, "gaussian")
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    F = stft(f, g)
    for z0 in [(0, 0), (5, 11), (n - 1, 3)]:
        shifted = stft(tfcore.tf_shift(f, z0), g)
        assert np.max(np.abs(np.abs(shifted) - np.abs(np.roll(F, z0, axis=(0, 1))))) < 1e-10


def test_adjoint_consistency():
    n = 24
    rng = np.random.default_rng(7)
    grid = TFGrid(n)
    g = make_window(grid, "gaussian")
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    lhs = np.sum(stft(f, g) * np.conj(G))
    rhs = np.sum(f * np.conj(istft(G, g)))
    assert abs(lhs - rhs) < 1e-10


def _kernel(g, z, w):
    """K_g(z, w) = <pi(w)g, pi(z)g>, from its definition."""
    a = tfcore.tf_shift(g.samples, w)
    b = tfcore.tf_shift(g.samples, z)
    return complex(np.dot(a, np.conj(b)))


def test_kernel_diagonal_is_one():
    g = make_window(TFGrid(16), "gaussian")
    for z in [(0, 0), (3, 7), (15, 15)]:
        assert _kernel(g, z, z) == pytest.approx(1.0, abs=1e-12)


def test_kernel_bounded_by_one():
    n = 12
    g = make_window(TFGrid(n), "gaussian")
    rng = np.random.default_rng(8)
    for _ in range(50):
        z = tuple(rng.integers(0, n, 2))
        w = tuple(rng.integers(0, n, 2))
        assert abs(_kernel(g, z, w)) <= 1 + 1e-12


def test_reproducing_formula_all_points_n8():
    # lattice reproducing identity V(z) = (1/n) sum_w V(w) K(z, w); the
    # constant 1/n is fixed here by exhaustive brute force at n = 8
    n = 8
    grid = TFGrid(n)
    g = make_window(grid, "gaussian")
    rng = np.random.default_rng(9)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    V = stft(f, g)
    for zx in range(n):
        for zf in range(n):
            total = 0.0j
            for wx in range(n):
                for wf in range(n):
                    total += V[wx, wf] * _kernel(g, (zx, zf), (wx, wf))
            assert abs(total * grid.cell_measure - V[zx, zf]) < 1e-9


@pytest.mark.parametrize("n", [8, 16, 32])
def test_reproducing_formula_sampled(n):
    # lattice reproducing identity V(z) = (1/n) sum_w V(w) K(z, w) at 12 random z
    g = make_window(TFGrid(n), "gaussian")
    assert _reproducing_defect(g, np.random.default_rng(10 + n)) < 1e-9


def test_offset_distances():
    grid = TFGrid(16)
    d = tfcore.offset_distances(grid)
    assert d[0, 0] == 0.0
    assert d[1, 0] == pytest.approx(grid.cell_side)
    assert d[15, 0] == pytest.approx(grid.cell_side)  # wraps on the torus
    assert d[8, 8] == pytest.approx(np.sqrt(128) / 4)


@pytest.mark.parametrize("n", [4, 5, 8, 17, 64])
def test_offset_distances_is_the_shared_cell_distance(n):
    grid = TFGrid(n)
    expected = np.sqrt(_cell_distances_sq(grid, (0, 0))) / np.sqrt(n)
    assert np.array_equal(tfcore.offset_distances(grid), expected)
    i = np.arange(n)
    d = np.minimum(i, n - i).astype(float)
    # the closed form sqrt(min(x, n-x)^2 + min(xi, n-xi)^2) / sqrt(n)
    closed = np.sqrt(d[:, None] ** 2 + d[None, :] ** 2) / np.sqrt(n)
    assert np.array_equal(tfcore.offset_distances(grid), closed)


def test_product_field_and_mask_operator_are_adjoint():
    # sum_z chi(z) <A pi(z)g, pi(z)g> = sum_{t,s} A[t, s] conj(M_chi[t, s]) for
    # Hermitian A and real weights chi, M_chi = sum_z chi(z) pi(z)g (pi(z)g)^H
    n = 16
    rng = np.random.default_rng(12)
    g = make_window(TFGrid(n), "gaussian_t2")
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = A + A.conj().T
    chi = rng.standard_normal((n, n))
    lhs = np.sum(chi * tfcore.product_field(A, np.eye(n), g))
    rhs = np.sum(A * np.conj(tfcore.mask_operator(chi, g)))
    assert abs(lhs - rhs) < 1e-10 * np.sum(np.abs(A))


def test_product_field_of_real_symmetric_matrix():
    # a real A is taken as complex; the identity gives ||pi(z)phi||^2 = 1
    # everywhere, and a real diagonal A = diag(a) gives sum_t a(t) |phi(t - x)|^2
    n = 16
    g = make_window(TFGrid(n), "gaussian")
    assert np.allclose(tfcore.product_field(np.eye(n), np.eye(n), g), 1.0, atol=1e-12)
    a = np.arange(n, dtype=float)
    expected = np.abs(tfcore.translates(g)) ** 2 @ a
    Q = tfcore.product_field(np.diag(a), np.eye(n), g)
    assert np.allclose(Q, expected[:, None], atol=1e-12)


def test_product_field_and_mask_operator_shape_mismatch():
    g = make_window(TFGrid(16), "gaussian")
    with pytest.raises(errors.ConfigurationError):
        tfcore.product_field(np.eye(8), np.eye(8), g)
    with pytest.raises(errors.ConfigurationError):
        tfcore.mask_operator(np.ones((8, 8)), g)


def _windows(n, rng):
    """The Gaussian and a random complex window of length n."""
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return make_window(TFGrid(n), "gaussian"), tfcore.Window(noise / np.linalg.norm(noise))


@pytest.mark.parametrize("n", [9, 15, 16])
def test_product_field_matches_brute_stft(n):
    # for Hermitian A = sum_j mu_j u_j u_j^H, <A pi(z)phi, pi(z)phi> is
    # sum_j mu_j n |V_phi u_j(z)|^2; odd and even n cover the lag n/2 edge
    rng = np.random.default_rng(20 + n)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = A + A.conj().T
    mu, U = np.linalg.eigh(A)
    for phi in _windows(n, rng):
        expected = sum(
            m * n * np.abs(brute_stft(u, phi.samples)) ** 2 for m, u in zip(mu, U.T)
        )
        Q = tfcore.product_field(A, np.eye(n), phi)
        assert Q.dtype == np.float64
        assert np.max(np.abs(Q - expected)) < 1e-12 * np.sum(np.abs(A))


@pytest.mark.parametrize("n", [9, 15, 16])
def test_mask_operator_matches_brute_locop_and_is_hermitian(n):
    rng = np.random.default_rng(30 + n)
    cells = rng.random((n, n)) < 0.3
    for g in _windows(n, rng):
        M = tfcore.mask_operator(cells, g)
        assert np.max(np.abs(M / n - brute_locop(cells, g.samples))) < 1e-13
        assert np.array_equal(M, M.conj().T)


def _assert_equal_with_signed_zeros(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


# 16 and the sweep 17..512 take every size from 16 to 512, odd and even
@pytest.mark.parametrize(
    "sizes", [[8], [9], [15], [16], [64], range(17, 513)],
    ids=["8", "9", "15", "16", "64", "17-512"],
)
def test_mask_operator_equals_the_zero_filled_conjugate_transpose_sum(sizes):
    # real, non-boolean weights of both signs reach every lag with a value;
    # mask_operator writes through the lag view of the indices, the oracle
    # scatters to gathered flat positions.  The sweep takes only the random
    # complex window, the most general plan: the positions do not depend on
    # the window's values
    rng = np.random.default_rng(50 + sizes[0])
    for n in sizes:
        weights = 3.0 * rng.random((n, n)) - 1.0
        gaussian, random_complex = _windows(n, rng)
        for g in (gaussian, random_complex) if len(sizes) == 1 else (random_complex,):
            M = tfcore.mask_operator(weights, g)
            _assert_equal_with_signed_zeros(M, zero_fill_mask_operator(weights, g))
            assert np.array_equal(M, M.conj().T), n


def test_lag_plan_is_built_once_per_window():
    n = 16
    g = make_window(TFGrid(n), "gaussian")
    assert "lag_plan" not in vars(g)
    tfcore.product_field(np.eye(n), np.eye(n), g)
    plan = vars(g)["lag_plan"]
    tfcore.mask_operator(np.ones((n, n)), g)
    tfcore.product_field(np.eye(n), np.eye(n), g)
    assert g.lag_plan is plan
    assert not plan.flags.writeable
    assert "lag_plan" not in vars(make_window(TFGrid(n), "gaussian"))


@pytest.mark.parametrize("n", [9, 16])
def test_lag_plan_is_one_read_only_array(n):
    plan = make_window(TFGrid(n), "gaussian").lag_plan
    assert isinstance(plan, np.ndarray)
    assert plan.shape == (n, n // 2 + 1) and plan.dtype == np.complex128
    assert not plan.flags.writeable


@pytest.mark.parametrize("n", [9, 16])
def test_lag_plan_index_is_the_flat_lag_diagonal(n):
    # the plan reads the samples and mask_operator writes its lag diagonals
    # through one lag view; over the indices it is the lag diagonal t, t + tau
    lags = tfcore._lag_view(np.arange(n))
    P = make_window(TFGrid(n), "gaussian").lag_plan
    assert lags.shape == P.shape == (n, n // 2 + 1)
    t, tau = np.meshgrid(np.arange(n), np.arange(n // 2 + 1), indexing="ij")
    assert np.array_equal(lags, (t + tau) % n)
    # together the lags 0..n/2 and their transposes reach every position
    covered = np.union1d(t * n + lags, lags * n + t)
    assert np.array_equal(covered, np.arange(n * n))
    with pytest.raises(ValueError):
        lags[0, 0] = 0
    with pytest.raises(ValueError):
        P[0, 0] = 0


def test_lag_plan_shared_by_concurrent_callers():
    # pool threads share one window; its lazily built plan must give every
    # caller the serial result, however the threads interleave
    n = 32
    rng = np.random.default_rng(40)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = A + A.conj().T
    expected = tfcore.product_field(A, np.eye(n), make_window(TFGrid(n), "gaussian"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            g = make_window(TFGrid(n), "gaussian")
            with ThreadPoolExecutor(max_workers=8) as pool:
                fields = list(pool.map(lambda _: tfcore.product_field(A, np.eye(n), g), range(32)))
            assert all(np.array_equal(Q, expected) for Q in fields)
    finally:
        sys.setswitchinterval(interval)


def test_lag_plan_positions_and_translates_equal_the_gathered_oracles():
    # the index patterns of the plan and the translates do not depend on the
    # window's values; a random complex window is the most general plan.
    # mask_operator's positions are checked by the zero-filled oracle above
    rng = np.random.default_rng(60)
    for n in range(16, 513):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = tfcore.Window(v / np.linalg.norm(v))
        assert np.array_equal(g.lag_plan, gather_lag_plan(g)[1]), n
        assert np.array_equal(tfcore.translates(g), gather_translates(g)), n


@pytest.mark.parametrize("label", ["gaussian", "gaussian_t2"])
def test_stock_window_lag_plans_equal_the_gathered_oracle(label):
    for n in (16, 17, 64, 65, 255, 256, 512):
        g = make_window(TFGrid(n), label)
        assert np.array_equal(g.lag_plan, gather_lag_plan(g)[1]), n


def test_translates_is_a_read_only_view_of_the_samples():
    g = make_window(TFGrid(16), "gaussian")
    T = tfcore.translates(g)
    assert T.shape == (16, 16)
    with pytest.raises(ValueError):
        T[0, 0] = 0
    # the n x n view spans 2n samples, not an n x n copy
    low, high = np.lib.array_utils.byte_bounds(T)
    assert high - low <= 2 * 16 * T.itemsize


def _max_rel_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("K", [1, 2, 3, 20])
def test_lag_band_matches_the_gathered_full_product(K):
    # covariance-like factors L = X^T, R = conj(X) of K realizations; BLAS
    # tiling differs between machines, so the bound is relative
    rng = np.random.default_rng(70 + K)
    for n in range(16, 513):
        X = rng.standard_normal((K, n)) + 1j * rng.standard_normal((K, n))
        L, R = X.T, np.conj(X)
        D = tfcore.lag_band(L, R)
        assert D.shape == (n, n // 2 + 1)
        assert _max_rel_error(D, lag_band_of_product(L, R)) <= 1e-13, n


@pytest.mark.parametrize("n", [65, 129, 193, 257, 321, 385, 449])
def test_lag_band_of_square_factors_with_a_one_row_remainder(n):
    # n = 1 mod 64 leaves one row past the last full block of 64
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = A + A.conj().T
    assert _max_rel_error(tfcore.lag_band(H, H), lag_band_of_product(H, H)) <= 1e-13


def test_lag_band_is_fresh_and_leaves_its_factors_alone():
    rng = np.random.default_rng(80)
    n = 100
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A.flags.writeable = False
    D = tfcore.lag_band(A, A)
    # the caller may write the band; the block products it was read from
    # are gone, and the factors are untouched
    assert D.flags.writeable and D.flags.owndata
    assert not np.shares_memory(D, A)


def test_product_field_is_the_quadratic_field_of_the_product():
    rng = np.random.default_rng(90)
    for n in (16, 17, 100):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for g in _windows(n, rng):
            want = gathered_field(A @ A.conj().T, g)
            got = tfcore.product_field(A, A.conj().T, g)
            assert _max_rel_error(got, want) <= 1e-13


def test_lag_band_and_product_field_shape_mismatch():
    g = make_window(TFGrid(16), "gaussian")
    with pytest.raises(errors.ConfigurationError):
        tfcore.lag_band(np.ones((16, 3)), np.ones((2, 16)))
    with pytest.raises(errors.ConfigurationError):
        tfcore.lag_band(np.ones(16), np.ones(16))
    with pytest.raises(errors.ConfigurationError):
        tfcore.product_field(np.ones((8, 2)), np.ones((2, 8)), g)

import tracemalloc

import numpy as np
import pytest
from scipy.special import gammainc
from scipy.stats import poisson

from maskrec import errors, locop, verify
from maskrec.locop import (
    ambiguity_moment,
    assemble_locop,
    check_largeness,
    plateau_violations,
    spectrum,
    theta,
)
from maskrec.maskgeom import Mask, disc_mask, measure, perimeter
from maskrec.tfcore import TFGrid, make_window, product_field, tf_shift
from maskrec.verify import double_orthogonality_defect, theta_first_moment

from helpers import brute_locop, brute_stft, full_product_theta, random_cells


def _full(n):
    return Mask(np.ones((n, n)))


def _empty(n):
    return Mask(np.zeros((n, n)))


def _spec(mask, g):
    return spectrum(assemble_locop(mask, g), measure(mask))


# ------------------------------------------------------------------ assembly


def test_assemble_empty_mask_is_zero():
    n = 16
    g = make_window(TFGrid(n), "gaussian")
    assert np.max(np.abs(assemble_locop(_empty(n), g))) == 0.0


def test_assemble_full_mask_is_identity():
    n = 16
    g = make_window(TFGrid(n), "gaussian")
    H = assemble_locop(_full(n), g)
    assert np.max(np.abs(H - np.eye(n))) < 1e-10


def test_assemble_single_cell_rank_one():
    n = 8
    g = make_window(TFGrid(n), "gaussian")
    cells = np.zeros((n, n), bool)
    cells[0, 0] = True
    H = assemble_locop(Mask(cells), g)
    expected = np.outer(g.samples, np.conj(g.samples)) / n
    assert np.max(np.abs(H - expected)) < 1e-12
    assert np.trace(H).real == pytest.approx(1 / 8, abs=1e-12)


def test_assemble_matches_brute_kernel_sum():
    n = 8
    rng = np.random.default_rng(31)
    g = make_window(TFGrid(n), "gaussian")
    cells = random_cells(n, rng, fill=0.15)
    H = assemble_locop(Mask(cells), g)
    assert np.max(np.abs(H - brute_locop(cells, g.samples))) < 1e-12


def test_assemble_is_hermitian_psd():
    n = 16
    rng = np.random.default_rng(32)
    g = make_window(TFGrid(n), "gaussian")
    H = assemble_locop(Mask(random_cells(n, rng)), g)
    assert np.max(np.abs(H - H.conj().T)) == 0.0
    assert np.linalg.eigvalsh(H).min() > -1e-12


def test_assemble_grid_mismatch():
    g = make_window(TFGrid(16), "gaussian")
    with pytest.raises(errors.ConfigurationError):
        assemble_locop(_empty(8), g)


def test_assemble_peak_memory_is_three_arrays():
    # H (16 n^2 bytes), one lag plane (16 n (n/2 + 1)) and the float copy of
    # the cells (8 n^2), with 1 KiB a row for what is O(n); the window's plan
    # is kept for its lifetime, so it is built before the measurement
    n = 512
    grid = TFGrid(n)
    g = make_window(grid, "gaussian")
    disc = disc_mask(grid, 16.0)
    g.lag_plan
    bound = 16 * n * n + 16 * n * (n // 2 + 1) + 8 * n * n + 1024 * n
    tracemalloc.start()
    try:
        assemble_locop(disc, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)


# ------------------------------------------------------------------ spectrum


def test_spectrum_zero_operator():
    spec = spectrum(np.zeros((8, 8)), 0.0)
    assert np.all(spec.eigenvalues == 0.0)


def test_spectrum_identity():
    spec = spectrum(np.eye(8), 8.0)
    assert np.all(spec.eigenvalues == 1.0)


def test_spectrum_rejects_out_of_range_eigenvalues():
    with pytest.raises(errors.NumericError):
        spectrum(2.0 * np.eye(8), 8.0)


def test_spectrum_rejects_non_hermitian():
    H = np.zeros((8, 8))
    H[0, 1] = 1.0
    with pytest.raises(errors.ConfigurationError):
        spectrum(H, 0.0)


@pytest.mark.parametrize("shape", [(8, 4), (8,), (2, 8, 8)])
def test_spectrum_rejects_an_operator_that_is_not_square(shape):
    with pytest.raises(errors.ConfigurationError, match="square"):
        spectrum(np.zeros(shape), 0.0)


@pytest.mark.parametrize(
    "solver, solve, message",
    [("eigvalsh", lambda H: spectrum(H, 8.0), "eigenvalue solve failed"),
     ("eigh", lambda H: spectrum(H, 8.0).eigenvectors, "eigendecomposition failed")],
)
def test_a_failed_eigensolve_is_a_numeric_error(solver, solve, message, monkeypatch):
    def no_convergence(_):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, solver, no_convergence)
    with pytest.raises(errors.NumericError, match=message):
        solve(np.eye(8))


# every eigenvalue of the zero operator lies below 3/4, so the count is the
# number of eigenvalues read: m_half clamped to [0, n]
@pytest.mark.parametrize(
    "omega, count", [(-1.0, 0), (0.0, 0), (1.9, 0), (2.0, 1), (7.9, 3), (16.0, 8), (17.0, 8)]
)
def test_plateau_violations_reads_the_first_m_half_eigenvalues(omega, count):
    assert plateau_violations(spectrum(np.zeros((8, 8)), omega)) == count
    assert plateau_violations(spectrum(np.eye(8), omega)) == 0


def _half_identity(n, i, j, defect):
    """0.5 I with ``defect`` added at (i, j) alone."""
    H = 0.5 * np.eye(n, dtype=complex)
    H[i, j] += defect
    return H


# positions relative to the 128-cell blocks of the Hermitian check
@pytest.mark.parametrize(
    "n, i, j, defect",
    [
        (130, 129, 128, 1e-6),  # the ragged last block, 2 x 2
        (130, 128, 128, 1e-6j),  # its diagonal, imaginary
        (300, 290, 3, 1e-6),  # a strictly lower block only
        (300, 200, 200, 2e-6j),  # an imaginary diagonal entry of a middle block
        (8, 5, 5, 1e-6j),  # a single block
    ],
)
def test_spectrum_blockwise_check_finds_a_single_defect(n, i, j, defect):
    with pytest.raises(errors.ConfigurationError):
        spectrum(_half_identity(n, i, j, defect), 0.0)


@pytest.mark.parametrize("n, i, j", [(130, 129, 128), (300, 290, 3), (8, 0, 1)])
def test_spectrum_accepts_a_defect_of_exactly_1e_10(n, i, j):
    spec = spectrum(_half_identity(n, i, j, 1e-10), 0.0)
    assert np.allclose(spec.eigenvalues, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("at", [(0, 0), (3, 1), (140, 7)])
def test_spectrum_rejects_non_finite_entries_before_the_eigensolve(bad, at, monkeypatch):
    def no_solve(_):
        raise AssertionError("eigvalsh ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
    H = 0.5 * np.eye(150, dtype=complex)
    H[at] = bad
    H[at[::-1]] = np.conj(bad)
    with pytest.raises(errors.NumericError):
        spectrum(H, 0.0)


def test_spectrum_eigenvalues_match_descending_eigh():
    n = 32
    rng = np.random.default_rng(36)
    g = make_window(TFGrid(n), "gaussian_t2")
    H = assemble_locop(Mask(random_cells(n, rng)), g)
    want = np.linalg.eigh(H)[0][::-1]
    assert np.max(np.abs(spectrum(H, 0.0).eigenvalues - want)) < 1e-13


def test_spectrum_calls_eigh_only_when_eigenvectors_are_read(tmp_path, monkeypatch):
    from maskrec import harness

    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or real(a))
    n = 16
    g = make_window(TFGrid(n), "gaussian")
    disc = disc_mask(TFGrid(n), 4.0)
    spec = _spec(disc, g)
    theta(spec, g)
    theta_first_moment(spec.H, g, disc, g)
    harness.run_spectrum(harness.Scenario(n=n, shape="disc:measure=4"), tmp_path)
    assert calls == []
    assert spec.eigenvectors is spec.eigenvectors
    assert len(calls) == 1


def test_spectrum_keeps_a_read_only_operator():
    n = 16
    grid = TFGrid(n)
    g = make_window(grid, "gaussian")
    H = assemble_locop(disc_mask(grid, 4.0), g)
    assert spectrum(H, 4.0).H is H
    writeable = np.array(H)
    spec = spectrum(writeable, 4.0)
    assert not spec.H.flags.writeable
    before = theta(spec, g).values
    writeable[:] = 0.0
    assert np.array_equal(theta(spec, g).values, before)
    assert np.array_equal(spec.eigenvectors, spectrum(H, 4.0).eigenvectors)
    with pytest.raises(ValueError):
        spec.H[0, 0] = 0.0


def test_spectrum_descending_orthonormal():
    n = 16
    g = make_window(TFGrid(n), "gaussian")
    spec = _spec(disc_mask(TFGrid(n), 4.0), g)
    assert np.all(np.diff(spec.eigenvalues) <= 0)
    gram = spec.eigenvectors.conj().T @ spec.eigenvectors
    assert np.max(np.abs(gram - np.eye(n))) < 1e-9
    assert spec.eigenvalues.sum() == pytest.approx(spec.omega_measure, abs=1e-9)


def test_disc_eigenvalue_plateau_n64():
    # measure-8 disc: the top |mask|/2 = 4 eigenvalues stay above 3/4 (the
    # largeness check does not pass at this size, but the plateau holds and
    # is asserted as an observed property)
    n = 64
    g = make_window(TFGrid(n), "gaussian")
    spec = _spec(disc_mask(TFGrid(n), 8.0), g)
    assert np.all(spec.eigenvalues[:4] >= 0.75)
    assert plateau_violations(spec) == 0


@pytest.mark.parametrize("n,omega,tol", [(64, 8.0, 3.5e-4), (128, 20.0, 1.8e-4)])
def test_disc_spectrum_matches_daubechies_closed_form(n, omega, tol):
    # Daubechies (1988): for the Gaussian window and a centred disc the
    # eigenvalues are lambda_k = P(k + 1, |disc|), the regularized lower
    # incomplete gamma function; the lattice gap is 3.3e-4 and 1.7e-4 here
    grid = TFGrid(n)
    mask = disc_mask(grid, omega)
    assert measure(mask) == omega
    spec = spectrum(assemble_locop(mask, make_window(grid, "gaussian")), omega)
    k = np.arange(n)
    assert np.max(np.abs(spec.eigenvalues - gammainc(k + 1, omega))) < tol


def test_figure1_theta_matches_daubechies_closed_form():
    # with lambda_k = P(k + 1, |disc|) and |V_phi h_k(z)|^2 =
    # e^{-pi|z|^2} (pi|z|^2)^k / k!, theta(z) = sum_k lambda_k^2 times that
    # Poisson weight, z measured from the disc centre (n/2, n/2); the lattice
    # disc is not round, so the sup gap is 7.94e-3 at n=256 (9.17e-3 at n=128)
    n, omega = 256, 100.0
    grid = TFGrid(n)
    g = make_window(grid, "gaussian")
    field = theta(_spec(disc_mask(grid, omega), g), g).values
    d = np.abs(np.arange(n) - n / 2)
    d = np.minimum(d, n - d)
    pi_z2 = np.pi * (d[:, None] ** 2 + d[None, :] ** 2) / n
    k = np.arange(n)[:, None, None]
    closed = np.sum(gammainc(k + 1, omega) ** 2 * poisson.pmf(k, pi_z2), axis=0)
    assert np.max(np.abs(field - closed)) < 8.5e-3


def test_eigenvalue_monotonicity_under_mask_growth():
    n = 16
    g = make_window(TFGrid(n), "gaussian")
    small = disc_mask(TFGrid(n), 3.0)
    large = disc_mask(TFGrid(n), 6.0)
    spec_small = _spec(small, g)
    spec_large = _spec(large, g)
    assert np.all(spec_small.eigenvalues <= spec_large.eigenvalues + 1e-9)


# ------------------------------------------------------- double orthogonality


def test_double_orth_first_eigenvector():
    n = 16
    g = make_window(TFGrid(n), "gaussian")
    mask = disc_mask(TFGrid(n), 4.0)
    assert double_orthogonality_defect(_spec(mask, g), mask, g, m_max=1) < 1e-9


def test_double_orth_full_mask_is_orthonormality():
    n = 16
    g = make_window(TFGrid(n), "gaussian")
    mask = _full(n)
    assert double_orthogonality_defect(_spec(mask, g), mask, g, m_max=n) < 1e-9


def test_double_orth_m_max_bound():
    n = 16
    g = make_window(TFGrid(n), "gaussian")
    mask = _full(n)
    with pytest.raises(errors.ConfigurationError):
        double_orthogonality_defect(_spec(mask, g), mask, g, m_max=n + 1)


# ------------------------------------------------------------------ theta


def test_theta_empty_mask_is_zero():
    n = 16
    g = make_window(TFGrid(n), "gaussian")
    th = theta(_spec(_empty(n), g), g)
    assert np.max(np.abs(th.values)) == 0.0


def test_theta_full_mask_is_one():
    n = 16
    g = make_window(TFGrid(n), "gaussian")
    th = theta(_spec(_full(n), g), g)
    assert np.max(np.abs(th.values - 1.0)) < 1e-9


def test_theta_bounds():
    n = 32
    g = make_window(TFGrid(n), "gaussian")
    mask = disc_mask(TFGrid(n), 8.0)
    th = theta(_spec(mask, g), g)
    assert th.values.min() >= 0.0
    assert th.values.max() <= 1.0 + 1e-9
    assert th.values.sum() / n <= measure(mask) + 1e-9


def test_theta_matches_eigenfunction_spectrograms():
    n = 16
    grid = TFGrid(n)
    g = make_window(grid, "gaussian_t2")
    phi = make_window(grid, "gaussian")
    spec = _spec(disc_mask(grid, 4.0), g)
    expected = sum(
        lam**2 * n * np.abs(brute_stft(f, phi.samples)) ** 2
        for lam, f in zip(spec.eigenvalues, spec.eigenvectors.T)
    )
    assert np.max(np.abs(theta(spec, phi).values - expected)) < 1e-12


@pytest.mark.parametrize("n", [9, 16])
def test_theta_matches_spectrograms_of_eigh_eigenvectors(n):
    # theta is the quadratic form of H^2; the oracle takes the eigenpairs
    # from eigh directly and evaluates each transform by its triple sum
    grid = TFGrid(n)
    g = make_window(grid, "gaussian")
    phi = make_window(grid, "gaussian_t2")
    mask = disc_mask(grid, n / 4)
    H = assemble_locop(mask, g)
    lams, V = np.linalg.eigh(H)
    expected = sum(
        lam**2 * n * np.abs(brute_stft(f, phi.samples)) ** 2 for lam, f in zip(lams, V.T)
    )
    field = theta(spectrum(H, measure(mask)), phi).values
    assert np.max(np.abs(field - expected)) < 1e-12


def test_theta_matches_the_full_product_oracle_at_each_band_layout():
    # theta is the band of H @ H, whose block and window layout the lag band
    # tests check at every n; here one block (n <= 64), a one-row remainder
    # joining the block before it (n = 1 mod 64), two or more blocks whose
    # first window wraps (n = 100) or not (n = 128), odd and even n, n = 512.
    # theta reads H alone, so the spectrum skips the eigensolve here; BLAS
    # tiling differs between machines, so the bound is relative
    for n in (16, 17, 63, 64, 65, 66, 100, 127, 128, 129, 130, 191, 192, 255, 256, 257,
              449, 511, 512):
        grid = TFGrid(n)
        g = make_window(grid, "gaussian")
        H = assemble_locop(disc_mask(grid, n / 8), g)
        spec = locop.LocOpSpectrum(eigenvalues=np.empty(0), H=H, omega_measure=n / 8)
        want = full_product_theta(spec, g)
        gap = np.max(np.abs(theta(spec, g).values - want))
        assert gap <= 1e-13 * np.max(np.abs(want)), n


@pytest.mark.parametrize("model_label", ["gaussian", "gaussian_t2"])
def test_theta_l1_distance_bounded_by_moment(model_label):
    n = 32
    grid = TFGrid(n)
    g = make_window(grid, model_label)
    phi = make_window(grid, "gaussian")
    mask = disc_mask(grid, 8.0)
    th = theta(_spec(mask, g), phi)
    l1 = np.sum(np.abs(mask.cells.astype(float) - th.values)) / n
    bound = 2.0 * ambiguity_moment(g, phi) * perimeter(mask)
    assert l1 <= bound


# ------------------------------------------------------------- first moment


def test_first_moment_empty_and_full():
    n = 16
    g = make_window(TFGrid(n), "gaussian")
    assert theta_first_moment(assemble_locop(_empty(n), g), g, _empty(n), g) < 1e-12
    assert theta_first_moment(assemble_locop(_full(n), g), g, _full(n), g) < 1e-9


def test_first_moment_random_mask():
    n = 16
    rng = np.random.default_rng(34)
    g = make_window(TFGrid(n), "gaussian")
    cells = np.zeros(n * n, bool)
    cells[rng.choice(n * n, size=20, replace=False)] = True
    mask = Mask(cells.reshape(n, n))
    assert theta_first_moment(assemble_locop(mask, g), g, mask, g) < 1e-8


def test_first_moment_against_quadratic_form():
    # independent oracle: sum_m lambda_m * n * |stft(f_m, phi)(z)|^2 equals
    # the quadratic form <H pi(z) phi, pi(z) phi> evaluated directly
    n = 16
    grid = TFGrid(n)
    g = make_window(grid, "gaussian")
    phi = make_window(grid, "gaussian")
    mask = disc_mask(grid, 4.0)
    H = assemble_locop(mask, g)
    spec = spectrum(H, measure(mask))
    V = spec.eigenvectors
    lhs = product_field(V * spec.eigenvalues, V.conj().T, phi)
    rng = np.random.default_rng(35)
    for _ in range(5):
        z = tuple(int(v) for v in rng.integers(0, n, 2))
        pz = tf_shift(phi.samples, z)
        direct = np.real(np.conj(pz) @ H @ pz)
        assert lhs[z] == pytest.approx(direct, abs=1e-10)


def test_the_first_moment_criterion_runs_no_eigensolve(monkeypatch):
    import test_acceptance

    def no_solve(_):
        raise AssertionError("an eigensolve ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
    monkeypatch.setattr(np.linalg, "eigh", no_solve)
    test_acceptance.test_c03_theta_convolution_identity()


@pytest.mark.parametrize("model_label", ["gaussian", "gaussian_t2"])
def test_first_moment_both_window_pairings(model_label):
    n = 16
    grid = TFGrid(n)
    g = make_window(grid, model_label)
    phi = make_window(grid, "gaussian")
    mask = disc_mask(grid, 4.0)
    assert theta_first_moment(assemble_locop(mask, g), phi, mask, g) < 1e-8


# ------------------------------------------------------------------ largeness


def test_moment_of_gaussian_pair_matches_continuum():
    # closed form for the unit Gaussian ambiguity: density e^{-pi |z|^2},
    # first absolute moment = 2 pi * int r^2 e^{-pi r^2} dr = 1/2
    g = make_window(TFGrid(64), "gaussian")
    assert ambiguity_moment(g, g) == pytest.approx(0.5, abs=0.005)


def test_check_largeness_empty_fails():
    n = 16
    g = make_window(TFGrid(n), "gaussian")
    result = check_largeness(_empty(n), g)
    assert not result.passed
    assert result.lhs == 0.0
    assert result.rhs == 2.0


def test_check_largeness_full_passes():
    n = 64
    g = make_window(TFGrid(n), "gaussian")
    result = check_largeness(_full(n), g)
    assert result.passed
    assert result.lhs == 64.0
    assert result.rhs == 2.0  # no boundary on the torus


def test_check_largeness_band_passes():
    from maskrec.maskgeom import rect_mask

    n = 256
    g = make_window(TFGrid(n), "gaussian")
    band = rect_mask(TFGrid(n), 0, 0, n, 160)
    assert check_largeness(band, g).passed


def test_check_largeness_figure1_disc_fails():
    # |mask| = 100 against 8 * moment * perimeter ~ 4 * 45.25 ~ 181: the
    # measure-100 disc does not dominate its perimeter for the Gaussian
    # window, so the condition is (correctly) reported as failed
    n = 256
    g = make_window(TFGrid(n), "gaussian")
    result = check_largeness(disc_mask(TFGrid(n), 100.0), g)
    assert not result.passed
    assert result.lhs == pytest.approx(100.0)
    assert result.rhs == pytest.approx(181.0, abs=1.0)


# ------------------------------------------------------------------ bounds


def test_far_field_tail_bound():
    n = 32
    grid = TFGrid(n)
    g = make_window(grid, "gaussian")
    mask = disc_mask(grid, 8.0)
    defect = verify.far_field_defect(theta(_spec(mask, g), g).values, mask, g, g)
    assert defect <= 1e-8


@pytest.mark.parametrize("model_label", ["gaussian", "gaussian_t2"])
def test_regularization_bound_with_slack(model_label):
    n = 32
    grid = TFGrid(n)
    g = make_window(grid, model_label)
    phi = make_window(grid, "gaussian")
    mask = disc_mask(grid, 8.0)
    lhs, rhs = verify.regularization_defect(mask, g, phi)
    assert lhs <= 1.1 * rhs

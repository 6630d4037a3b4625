"""Test oracles: brute-force forms, independent of the package's FFT/EDT code
paths, and the earlier forms of rewritten kernels, which the rewrites must
match exactly."""

import numpy as np

from maskrec.maskgeom import _cell_distances_sq, make_mask
from maskrec.tfcore import TFGrid, make_window


def brute_stft(f, g):
    """Triple-sum evaluation of the lattice transform definition."""
    n = len(f)
    out = np.zeros((n, n), dtype=complex)
    for x in range(n):
        for xi in range(n):
            acc = 0.0j
            for t in range(n):
                acc += f[t] * np.conj(g[(t - x) % n]) * np.exp(-2j * np.pi * xi * t / n)
            out[x, xi] = acc
    return out / np.sqrt(n)


def brute_istft(V, g):
    """Direct adjoint summation."""
    n = V.shape[0]
    f = np.zeros(n, dtype=complex)
    for t in range(n):
        acc = 0.0j
        for x in range(n):
            for xi in range(n):
                acc += V[x, xi] * g[(t - x) % n] * np.exp(2j * np.pi * xi * t / n)
        f[t] = acc
    return f / np.sqrt(n)


def brute_locop(cells, g):
    """Direct kernel sum H[t, s] = (1/n) sum_{z in mask} pi(z)g (pi(z)g)^*."""
    n = cells.shape[0]
    t = np.arange(n)
    H = np.zeros((n, n), dtype=complex)
    for x in range(n):
        for xi in range(n):
            if not cells[x, xi]:
                continue
            pzg = np.exp(2j * np.pi * xi * t / n) * np.roll(g, x)
            H += np.outer(pzg, np.conj(pzg))
    return H / n


def gather_lag_plan(g):
    """``(index, P)``: the flat positions of the lags 0..n/2 and the plan,
    from ``% n`` index arithmetic and gathers."""
    n = g.n
    t = np.arange(n)[:, None]
    lags = (t + np.arange(n // 2 + 1)) % n
    P = np.fft.ifft(np.conj(g.samples[t]) * g.samples[lags], axis=0)
    return t * n + lags, P


def gather_translates(g):
    """``T[x, t] = g((t - x) mod n)`` gathered into an n x n copy."""
    t = np.arange(g.n)
    return g.samples[(t[None, :] - t[:, None]) % g.n]


def lag_band_of_product(L, R):
    """The lags 0..n/2 of the full product, gathered: ``(L @ R).take(index)``."""
    n = L.shape[0]
    t = np.arange(n)[:, None]
    return (L @ R).take(t * n + (t + np.arange(n // 2 + 1)) % n)


def gathered_field(A, phi):
    """``<A pi(z)phi, pi(z)phi>`` of a Hermitian n x n A: its lags 0..n/2
    gathered with ``take``, then the correlation and lag FFTs."""
    index, P = gather_lag_plan(phi)
    X = np.asarray(A, dtype=np.complex128).take(index)
    np.fft.fft(X, axis=0, out=X)
    X *= P
    np.fft.ifft(X, axis=0, norm="forward", out=X)
    return np.fft.irfft(X, phi.n, axis=1, norm="forward")


def full_product_theta(spec, phi):
    """theta as the quadratic form of the full n x n product H H."""
    return gathered_field(spec.H @ spec.H, phi)


def zero_fill_mask_operator(cells, g):
    """``sum_z chi(z) pi(z)g (pi(z)g)^H`` by the halved lag diagonals plus their
    conjugate transpose, on a zero-filled matrix."""
    n = g.n
    index, P = gather_lag_plan(g)
    X = np.fft.rfft2(np.asarray(cells, dtype=float))
    X *= np.conj(P)
    np.fft.ifft(X, axis=0, norm="forward", out=X)
    X[:, 0] /= 2
    if n % 2 == 0:
        X[:, -1] /= 2
    M = np.zeros((n, n), dtype=np.complex128)
    M.ravel()[index] = X
    M += M.conj().T
    return M


def stable_sort_closest_cells(grid, center, count):
    """The ``count`` cells nearest ``center``, ties in stable-argsort order."""
    order = np.argsort(_cell_distances_sq(grid, center).ravel(), kind="stable")
    cells = np.zeros(grid.n * grid.n, dtype=bool)
    cells[order[:count]] = True
    return cells.reshape(grid.n, grid.n)


def brute_torus_distance(source, n):
    """Min-image Euclidean distance (in continuous units) to a source set."""
    coords = np.argwhere(source)
    out = np.full((n, n), np.inf)
    if coords.size == 0:
        return out
    for i in range(n):
        for j in range(n):
            di = np.minimum(np.abs(coords[:, 0] - i), n - np.abs(coords[:, 0] - i))
            dj = np.minimum(np.abs(coords[:, 1] - j), n - np.abs(coords[:, 1] - j))
            out[i, j] = np.sqrt(float(np.min(di**2 + dj**2))) / np.sqrt(n)
    return out


def random_cells(n, rng, fill=0.3):
    return rng.random((n, n)) < fill


def oracle_noise(n, count, sigma, kind, seed):
    """Realizations ``0..count-1``, one fresh Philox generator each.

    Realization k comes from ``Generator(Philox(key=[seed mod 2**64, k]))``:
    2n standard normals for complex noise (the first n real, the last n
    imaginary, divided by sqrt 2), n for real noise; then scaled by sigma.
    """
    out = np.empty((count, n), dtype=complex)
    for k in range(count):
        key = np.array([seed & (2**64 - 1), k], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        if kind == "complex":
            z = rng.standard_normal(2 * n)
            out[k] = (z[:n] + 1j * z[n:]) / np.sqrt(2.0)
        else:
            out[k] = rng.standard_normal(n)
    return out * sigma


def brute_trial(scenario, t):
    """Trial ``t`` of a scenario from the definitions: ``(rho, estimate, radius)``.

    The trial's seed from its ``SeedSequence``, then :func:`oracle_noise`;
    the kernel sum :func:`brute_locop`; ``rho`` the mean of
    ``n |brute_stft(H y)|^2`` over all K rows, real or complex; the cells at
    or above a quarter of its maximum; and the largest
    :func:`brute_torus_distance` from an error cell to the truth's boundary
    cells, floored at half a cell side (0 for a perfect estimate).  The
    truth and the windows are the package's.
    """
    sc, n = scenario, scenario.n
    state = np.random.SeedSequence(sc.seed, spawn_key=(t,)).generate_state(1, dtype=np.uint64)
    rows = oracle_noise(n, sc.count, sc.sigma, sc.noise_kind, int(state[0]))
    grid = TFGrid(n)
    truth = make_mask(grid, sc.shape).cells
    model, recon = (make_window(grid, label).samples for label in (sc.model_window, sc.recon_window))
    H = brute_locop(truth, model)
    rho = np.mean([n * np.abs(brute_stft(H @ y, recon)) ** 2 for y in rows], axis=0)
    estimate = rho >= rho.max() / 4
    error = truth ^ estimate
    if not error.any():
        return rho, estimate, 0.0
    interior = truth.copy()
    for axis in (0, 1):
        for shift in (1, -1):
            interior &= np.roll(truth, shift, axis=axis)
    distance = brute_torus_distance(truth & ~interior, n)
    return rho, estimate, max(float(distance[error].max()), 0.5 / np.sqrt(n))

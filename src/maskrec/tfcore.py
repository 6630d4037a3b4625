"""Discrete Gabor analysis on the full n x n time-frequency lattice.

Sampling dictionary
-------------------
A length-n signal represents samples of a function on the real line at the
points t_k = (k - n/2) / sqrt(n), so one period of the cyclic signal covers
an interval of length sqrt(n).  The time-frequency plane is then an n x n
grid of cells of side ``1/sqrt(n)`` and measure ``1/n``; the total plane
measure equals n.

With the normalization used here,

    V(x, xi) = n^{-1/2} * sum_t f(t) * conj(g((t - x) mod n)) * e^{-2 pi i xi t / n},

the full-lattice transform is an exact isometry into the n^2-point lattice
equipped with the counting norm: ``sum |V|^2 = ||f||^2 ||g||^2``.  Because a
single lattice cell carries measure 1/n, the squared modulus ``|V|^2``
already absorbs one factor of the cell measure; plane-density units are
recovered by multiplying by n.  All continuum-style identities in the
package (trace, double orthogonality, moments) hold exactly on the lattice
under this dictionary.

Every time-frequency field of the package is the quadratic form
``Q_A(z) = <A pi(z)phi, pi(z)phi>`` of a Hermitian product ``A = L @ R``
(:func:`product_field`): the averaged spectrograms for the sample
covariance, theta for H^2, the first-moment field for (V lambda) V^H.  Its
adjoint, ``sum_z chi(z) Q_A(z) = sum_{t,s} A[t, s] conj(M[t, s])`` with
``M = sum_z chi(z) pi(z)g (pi(z)g)^H`` (:func:`mask_operator`), builds the
localization operator ``H = M / n``.

Both kernels work on the diagonals ``A[t, t + tau]`` of a Hermitian matrix
at the n/2 + 1 non-negative lags only: the negative lags are the conjugates
of the positive ones, so the field Q is one inverse real FFT over the lags,
and M is its half-lag diagonals plus their conjugate transpose, written
straight into the output through the same lag view of the indices.
:func:`lag_band` computes those diagonals of ``L @ R`` alone, block by
block, so no n x n product is formed.  What
depends on the window alone, the transformed lag products
``conj(phi(u)) phi(u + tau)``, is the window's :attr:`Window.lag_plan`,
computed on first use from a sliding view of the samples and kept for the
window's lifetime; a window is frozen with read-only samples, so its plan
cannot go stale.

All functions here are pure; inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError

WINDOW_GAUSSIAN = "gaussian"
WINDOW_GAUSSIAN_T2 = "gaussian_t2"

#: Number of wrap-around periods summed when periodizing the Gaussian.
#: Three already suffice at double precision for n >= 16; five adds margin.
PERIODIZATION_TERMS = 5

_NORM_TOL = 1e-12

#: Rows of the left factor per block product in :func:`lag_band`.
_BAND_BLOCK = 64
#: Column windows in :func:`lag_band` start and end on multiples of this, so
#: each entry comes from the same GEMM tiling as in the full product.
_BAND_ALIGN = 8


@dataclass(frozen=True)
class TFGrid:
    """The n x n discretization of the time-frequency plane."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ConfigurationError(f"grid size must be at least 4, got {self.n}")

    @property
    def cell_measure(self) -> float:
        return 1.0 / self.n

    @property
    def cell_side(self) -> float:
        return 1.0 / np.sqrt(self.n)

    @property
    def plane_measure(self) -> float:
        return float(self.n)


def _lag_view(v: np.ndarray) -> np.ndarray:
    """The read-only view whose row t is v(t), v(t + 1), ..., v(t + n/2), each
    index mod n: a window of length n/2 + 1 sliding over v extended by its
    first n/2 entries, with no n x (n/2 + 1) copy."""
    h = v.shape[0] // 2
    return sliding_window_view(np.concatenate((v, v[:h])), h + 1)


@dataclass(frozen=True)
class Window:
    """A unit-norm analysis/synthesis window.

    ``samples`` must be finite with l2 norm 1 within 1e-12: build a stock
    window with :func:`make_window`, or pass ``v / np.linalg.norm(v)`` for
    samples ``v`` of your own.  The samples are a read-only copy, so the lag
    plan cached on the window never goes stale.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=np.complex128)
        if samples.ndim != 1:
            raise ConfigurationError("window samples must be a 1-D vector")
        TFGrid(samples.shape[0])  # rejects a length below 4
        if not np.all(np.isfinite(samples)):
            raise ConfigurationError("window samples must be finite")
        norm = np.linalg.norm(samples)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ConfigurationError(
                f"window is not unit-norm (||g|| = {norm!r}); normalize first"
            )
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def grid(self) -> TFGrid:
        return TFGrid(self.n)

    @cached_property
    def lag_plan(self) -> np.ndarray:
        """``P``, the inverse DFT over u of the lag products
        ``conj(phi(u)) phi(u + tau)`` at the lags tau = 0..n/2; built once,
        read-only."""
        P = np.conj(self.samples)[:, None] * _lag_view(self.samples)
        np.fft.ifft(P, axis=0, out=P)
        P.flags.writeable = False
        return P


def make_window(grid: TFGrid, label: str) -> Window:
    """Build one of the two stock windows on ``grid``.

    ``gaussian`` is the periodization of 2^{1/4} e^{-pi t^2} over the
    n-cycle, l2-normalized and centered at index n/2.  ``gaussian_t2``
    multiplies the pre-normalization Gaussian by t^2 and renormalizes,
    which puts a zero at the center sample.
    """
    if label not in (WINDOW_GAUSSIAN, WINDOW_GAUSSIAN_T2):
        raise ConfigurationError(f"unknown window label {label!r}")
    # continuous time coordinates t_k = (k - n/2)/sqrt(n) of the samples
    t = (np.arange(grid.n) - grid.n / 2) / np.sqrt(grid.n)
    period = np.sqrt(grid.n)
    samples = np.zeros(grid.n)
    for p in range(-PERIODIZATION_TERMS, PERIODIZATION_TERMS + 1):
        samples += 2.0**0.25 * np.exp(-np.pi * (t + p * period) ** 2)
    if label == WINDOW_GAUSSIAN_T2:
        samples = samples * t**2
    samples = samples / np.linalg.norm(samples)
    return Window(samples=samples.astype(np.complex128))


def tf_shift(f: np.ndarray, z: tuple[int, int]) -> np.ndarray:
    """Time-frequency shift pi(z)f(t) = e^{2 pi i xi t / n} f((t - x) mod n), n = len(f)."""
    x, xi = z
    f = np.asarray(f, dtype=np.complex128)
    n = f.shape[-1]
    phase = np.exp(2j * np.pi * xi * np.arange(n) / n)
    return phase * np.roll(f, x, axis=-1)


def translates(g: Window) -> np.ndarray:
    """All cyclic translates of the window: ``T[x, t] = g((t - x) mod n)``.

    A read-only view of the doubled samples, with no n x n copy: row x is
    the window of length n that starts at n - x.
    """
    doubled = np.concatenate((g.samples, g.samples))
    return sliding_window_view(doubled, g.n)[g.n : 0 : -1]


def stft(f: np.ndarray, g: Window) -> np.ndarray:
    """Full-lattice transform with window ``g``; an exact isometry.

    ``f`` is a signal or a stack of signals of shape (..., n); the result
    has shape (..., n, n) with the time index x before the frequency
    index xi.
    """
    f = np.asarray(f, dtype=np.complex128)
    if f.shape[-1] != g.n:
        raise ConfigurationError(
            f"signal length {f.shape[-1]} does not match window length {g.n}"
        )
    windowed = f[..., None, :] * np.conj(translates(g))
    return np.fft.fft(windowed, axis=-1, norm="ortho")


def istft(V: np.ndarray, g: Window) -> np.ndarray:
    """Adjoint of :func:`stft`; inverts it on the range for a unit window."""
    V = np.asarray(V)
    if V.shape != (g.n, g.n):
        raise ConfigurationError(f"transform shape {V.shape} != window length {g.n}")
    rows = np.fft.ifft(V, axis=1, norm="ortho")
    return np.sum(translates(g) * rows, axis=0)


def _cell_distances_sq(grid: TFGrid, center: tuple[float, float]) -> np.ndarray:
    """Squared torus distance (in cells) from each cell to an arbitrary center."""
    n = grid.n
    i = np.arange(n, dtype=float)
    dx = np.abs(i - center[0] % n)
    dx = np.minimum(dx, n - dx)
    df = np.abs(i - center[1] % n)
    df = np.minimum(df, n - df)
    return dx[:, None] ** 2 + df[None, :] ** 2


def offset_distances(grid: TFGrid) -> np.ndarray:
    """Torus distance |z| of every lattice offset from 0, in continuous units."""
    return np.sqrt(_cell_distances_sq(grid, (0, 0))) / np.sqrt(grid.n)


def lag_band(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """The lag band ``D[t, tau] = (L @ R)[t, (t + tau) mod n]``, tau = 0..n/2.

    ``L`` is n x m and ``R`` is m x n.  Rows of L go in blocks of 64, each
    multiplied by the circular window of R's columns it needs, at most two
    GEMMs; the band is read off each block product as a reshaped slice of
    its buffer, so no n x n product is formed.  The windows start and end on
    multiples of 8 columns (capped at n) and no block has a single row,
    which a matmul would hand to gemv: every entry then comes from the same
    GEMM tiling as in ``L @ R``.  With OpenBLAS on one thread the band
    equals the one gathered from ``L @ R`` bit for bit.
    """
    L = np.asarray(L, dtype=np.complex128)
    R = np.asarray(R, dtype=np.complex128)
    if L.ndim != 2 or R.shape != (L.shape[1], L.shape[0]):
        raise ConfigurationError(
            f"factor shapes {L.shape} and {R.shape} do not give a square product"
        )
    n, h = L.shape[0], L.shape[0] // 2
    D = np.empty((n, h + 1), dtype=np.complex128)
    starts = list(range(0, n, _BAND_BLOCK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()  # a one-row remainder joins the block before it

    def aligned(stop: int) -> int:
        return min(n, -(-stop // _BAND_ALIGN) * _BAND_ALIGN)

    for t0, t1 in zip(starts, starts[1:] + [n]):
        # row t reads columns t .. t + h, which wrap past n for the last rows
        end = t1 + h
        windows = [(t0, aligned(end))]
        if end > n:
            windows.append((0, aligned(end - n)))
        rows, width = t1 - t0, sum(b - a for a, b in windows)
        # the block product fills the head of a flat buffer, where its entry
        # (i, i + tau) sits at i * (width + 1) + tau: rows one entry longer
        # start with the band
        flat = np.empty(rows * (width + 1), dtype=np.complex128)
        block = flat[: rows * width].reshape(rows, width)
        col = 0
        for a, b in windows:
            np.matmul(L[t0:t1], R[:, a:b], out=block[:, col : col + b - a])
            col += b - a
        D[t0:t1] = flat.reshape(rows, width + 1)[:, : h + 1]
    return D


def product_field(L: np.ndarray, R: np.ndarray, phi: Window) -> np.ndarray:
    """The real field ``Q[x, xi] = <A pi(z)phi, pi(z)phi>`` of the Hermitian
    product ``A = L @ R``, from its :func:`lag_band` alone.

    With ``s = t + tau``, ``Q(x, xi)`` is the DFT over the lag tau of the
    cyclic correlation ``C[x, tau]`` over t of the diagonal
    ``D[t, tau] = A[t, t + tau]`` with the window lag products
    ``P[u, tau] = conj(phi(u)) phi(u + tau)``.  For Hermitian A,
    ``C[x, -tau] = conj(C[x, tau])``, so the lags 0..n/2 determine C and one
    inverse real FFT over them gives Q.  The FFTs cost O(n^2 log n).
    """
    D = lag_band(L, R)
    n = phi.n
    if D.shape[0] != n:
        raise ConfigurationError(f"product size {D.shape[0]} != window length {n}")
    # the unnormalized inverses end the correlation over t and take the DFT
    # over the lags tau; the fresh band is the workspace
    np.fft.fft(D, axis=0, out=D)
    D *= phi.lag_plan
    np.fft.ifft(D, axis=0, norm="forward", out=D)
    return np.fft.irfft(D, n, axis=1, norm="forward")


def mask_operator(cells: np.ndarray, g: Window) -> np.ndarray:
    """The matrix ``sum_z chi(z) pi(z)g (pi(z)g)^H`` of real cell weights chi.

    The adjoint of :func:`product_field`, taking its steps in reverse: a
    real DFT of chi over frequency, then a cyclic convolution over time with
    the lag products ``g(u) conj(g(u + tau))`` (the window's plan,
    conjugated) gives the diagonals ``X[t, tau]`` at lags 0..n/2.  They go
    straight into the output through the lag view of the indices, the one
    the plan is read from (row t is t, t + 1, ..., t + n/2 mod n): as they
    are at ``M[t, lags]`` and, conjugated, at ``M[lags, t]``.  Then the
    diagonal becomes ``d + conj(d)`` with d lag 0 halved, and for even n lag
    n/2, its own transpose, ``e + conj(roll(e, -n/2))`` with e lag n/2
    halved.  These are the values of the halved diagonals plus their
    conjugate transpose, with no n x n temporary and no index table; the
    result is exactly Hermitian.
    """
    cells = np.asarray(cells, dtype=float)
    n = g.n
    if cells.shape != (n, n):
        raise ConfigurationError(f"cell array shape {cells.shape} != window length {n}")
    X = np.fft.rfft2(cells)
    X *= np.conj(g.lag_plan)
    np.fft.ifft(X, axis=0, norm="forward", out=X)
    d = X[:, 0] / 2
    e = X[:, -1] / 2
    t = np.arange(n)
    lags = _lag_view(t)
    M = np.empty((n, n), dtype=np.complex128)
    M[t[:, None], lags] = X
    # lag by lag, so that consecutive writes walk down a diagonal of M
    # rather than down a column
    M[lags.T, t] = np.conjugate(X, out=X).T
    # lag 0, and lag n/2 for even n, are their own transposes
    M[t, t] = d + np.conj(d)
    if n % 2 == 0:
        M[t, lags[:, -1]] = e + np.conj(np.roll(e, -(n // 2)))
    return M

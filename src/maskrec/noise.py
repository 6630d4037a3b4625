"""Seeded white-noise batches, complexification, and filtering.

Realization k of a seed's stream is drawn from the counter-based Philox
stream keyed by ``(seed, k)``, so a realization depends only on the seed
and its index: batches are reproducible, independent of generation order,
and safe to produce in parallel.  The first K rows of a larger batch equal
the K-row batch bit for bit, so one batch drawn for the largest K serves
every smaller K.
Standard-normal draws are scaled by sigma, which makes sigma-scaling of a
batch exact (same seed, entries multiplied by sigma).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .locop import LocOpSpectrum
from .tfcore import TFGrid

KIND_COMPLEX = "complex"
KIND_REAL = "real"

#: Accepted noise levels, inclusive.  Every sigma in [1e-150, 1e150] gives the masks
#: of sigma = 1; at 1e-160 sigma^2 is subnormal, and from 1e153 rho can overflow.
SIGMA_RANGE = (1e-100, 1e100)


@dataclass(frozen=True)
class NoiseBatch:
    """K realizations of white noise, complex or real."""

    realizations: np.ndarray
    kind: str

    @property
    def count(self) -> int:
        return self.realizations.shape[0]


def sample_noise(
    grid: TFGrid,
    count: int,
    sigma: float,
    kind: str = KIND_COMPLEX,
    seed: int = 0,
) -> NoiseBatch:
    """Draw realizations ``0 .. count-1`` of the seed's stream, of length n.

    Complex noise has independent real and imaginary parts of variance
    sigma^2 / 2 each; real noise has variance sigma^2.  One Philox
    generator is re-keyed to ``(seed, k)`` (counter 0, empty buffer) before
    realization k, which draws the same numbers as a fresh generator with
    that key.  A count or seed that is not an integer, a seed outside
    [0, 2**64) and a sigma outside :data:`SIGMA_RANGE` raise
    :class:`ConfigurationError`.
    """
    try:
        count, seed = operator.index(count), operator.index(seed)
    except TypeError:
        raise ConfigurationError(
            f"count and seed must be integers, got {count!r} and {seed!r}"
        ) from None
    if count < 1:
        raise ConfigurationError(f"need at least one realization, got {count}")
    if not SIGMA_RANGE[0] <= sigma <= SIGMA_RANGE[1]:
        raise ConfigurationError(f"sigma must be finite, in {list(SIGMA_RANGE)}, got {sigma}")
    if not 0 <= seed < 1 << 64:
        raise ConfigurationError(f"seed must be in [0, 2**64), got {seed}")
    if kind not in (KIND_COMPLEX, KIND_REAL):
        raise ConfigurationError(f"unknown noise kind {kind!r}")
    n = grid.n
    parts = 2 if kind == KIND_COMPLEX else 1
    draws = np.empty((count, parts, n))
    # a fixed seed, not a key alone: a bare key makes numpy seed an unused
    # SeedSequence from OS entropy on every call
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    key = state["state"]["key"]
    for k in range(count):
        key[:] = (seed, k)
        bitgen.state = state
        rng.standard_normal(out=draws[k])
    out = np.empty((count, n), dtype=np.complex128)
    out.real = draws[:, 0]
    if kind == KIND_COMPLEX:
        out.imag = draws[:, 1]
        out /= np.sqrt(2.0)
    else:
        out.imag = 0.0
    out *= sigma
    return NoiseBatch(realizations=out, kind=kind)


def complexify(batch: NoiseBatch) -> NoiseBatch:
    """Pair realizations as N'_k = N_k + i N_{k+K'}, K' = floor(K/2).

    Turns real noise into K' complex realizations of variance 2 sigma^2.
    The result is complex noise, so it cannot be complexified again.
    """
    if batch.kind != KIND_REAL:
        raise ConfigurationError(f"complexify needs real noise, got {batch.kind!r}")
    if batch.count < 2:
        raise ConfigurationError("complexification needs at least 2 realizations")
    half = batch.count // 2
    paired = batch.realizations[:half] + 1j * batch.realizations[half : 2 * half]
    return NoiseBatch(realizations=paired, kind=KIND_COMPLEX)


def filter_batch(batch: NoiseBatch, H: np.ndarray) -> np.ndarray:
    """Apply the operator to every realization; returns a (K, n) array."""
    H = np.asarray(H)
    if H.shape != (batch.realizations.shape[1],) * 2:
        raise ConfigurationError(
            f"operator shape {H.shape} does not match realizations of length "
            f"{batch.realizations.shape[1]}"
        )
    return batch.realizations @ H.T


def eigen_coefficients(batch: NoiseBatch, spec: LocOpSpectrum) -> np.ndarray:
    """Coefficients alpha[k, m] = <N_k, f_m> against the eigenvector basis.

    For unit-variance complex noise the coefficients are independent
    standard complex Gaussians; their squared moduli sum to ||N_k||^2
    (Parseval for the orthonormal basis).
    """
    if spec.H.shape[0] != batch.realizations.shape[1]:
        raise ConfigurationError("spectrum grid does not match batch length")
    return batch.realizations @ np.conj(spec.eigenvectors)

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
from .tfcore import TFGrid

KIND_COMPLEX = "complex"
KIND_REAL = "real"

#: Accepted noise levels, inclusive.  Every sigma in [1e-150, 1e150] gives the masks
#: of sigma = 1; at 1e-160 sigma^2 is subnormal, and from 1e153 rho can overflow.
SIGMA_RANGE = (1e-100, 1e100)


@dataclass(frozen=True)
class NoiseBatch:
    """The (K, n) complex draws of :func:`sample_noise`; the rest of the noise layer
    takes plain arrays.  Kept until perfbench's tracer stops reading its ``count``."""

    realizations: np.ndarray

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
    that key; its state is given as Python lists, which numpy sets faster
    than arrays.  The real draws are scaled (by 1/sqrt(2) for complex noise,
    then by sigma) before they are written into the complex output, which
    gives the bits of dividing the complex array by sqrt(2) and multiplying
    it by sigma with no complex arithmetic.  A count or seed that is not an
    integer, a seed outside [0, 2**64) and a sigma outside
    :data:`SIGMA_RANGE` raise :class:`ConfigurationError`.
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
    # numpy sets a state of Python lists about three times faster than one of arrays
    key = [seed, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for k in range(count):
        key[1] = k
        bitgen.state = state
        rng.standard_normal(out=draws[k])
    # numpy divides a complex array by a real scalar as a multiply by its
    # reciprocal and multiplies it by a real scalar part by part, so scaling
    # the real draws in the same order gives the same bits
    if kind == KIND_COMPLEX:
        draws *= 1.0 / np.sqrt(2.0)
    draws *= sigma
    out = np.empty((count, n), dtype=np.complex128)
    out.real = draws[:, 0]
    out.imag = draws[:, 1] if kind == KIND_COMPLEX else 0.0
    return NoiseBatch(out)


def complexify(rows: np.ndarray) -> np.ndarray:
    """Pair K real realizations as N'_k = N_k + i N_{k+K'}, K' = floor(K/2).

    Turns real noise into K' complex realizations of variance 2 sigma^2.
    Rows with a nonzero imaginary part are complex draws, or were paired
    already, and raise :class:`ConfigurationError`.
    """
    if np.any(np.imag(rows)):
        raise ConfigurationError("complexify needs real noise, got rows with an imaginary part")
    if len(rows) < 2:
        raise ConfigurationError("complexification needs at least 2 realizations")
    half = len(rows) // 2
    return rows[:half] + 1j * rows[half : 2 * half]


def filter_batch(rows: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Apply the operator to every row of a (K, n) array; returns a (K, n) array."""
    H = np.asarray(H)
    if H.shape != (rows.shape[1],) * 2:
        raise ConfigurationError(
            f"operator shape {H.shape} does not match realizations of length {rows.shape[1]}"
        )
    return rows @ H.T

"""The average of the observed spectrograms and the quantile-threshold mask estimate.

The estimator thresholds the average of the spectrograms of the filtered
observations at one quarter of its maximum.  The threshold is relative, so
the estimate is invariant under rescaling of the noise level: for a fixed
seed the returned mask is bit-identical for every sigma in
``noise.SIGMA_RANGE``.  Nothing in this module accepts a noise variance.

For the same reason the 1/K of the average is never applied to the whole
field: the estimate thresholds the sum of the K spectrograms at the exact
level that selects the cells of the average, and the average itself is
computed only when it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError
from .tfcore import Window, product_field


@dataclass(frozen=True)
class AvgSpectrogram:
    """Sum of the spectrograms of K filtered realizations, in plane-density units,
    and their count K."""

    total: np.ndarray
    count: int

    @property
    def rho(self) -> np.ndarray:
        """The mean spectrogram ``total / count``, computed on each read."""
        return self.total / self.count


@dataclass(frozen=True)
class MaskEstimate:
    """Thresholded mask: cells where rho >= threshold = max_rho / 4."""

    cells: np.ndarray
    threshold: float
    max_rho: float


def average_spectrogram(filtered: np.ndarray, phi: Window) -> AvgSpectrogram:
    """rho(z) = mean_k of n * |stft(y_k, phi)(z)|^2, held as the sum over k and K.

    The density scaling matches the field of ``locop.theta``: at unit noise
    variance the expectation of rho is exactly that field.  The factor n
    cancels the transform's 1/sqrt(n), so ``total`` is the quadratic form
    ``<A pi(z)phi, pi(z)phi>`` of ``A = sum_k y_k y_k^H``, read from the lag
    band of its factors: no n x n matrix is formed.  ``rho = total / K`` is
    that form of the sample covariance.
    """
    filtered = np.atleast_2d(np.asarray(filtered, dtype=np.complex128))
    if filtered.shape[0] < 1 or filtered.size == 0:
        raise ConfigurationError("average_spectrogram needs at least one realization")
    n = phi.n
    if filtered.shape[1] != n:
        raise ConfigurationError(
            f"realization length {filtered.shape[1]} != window length {n}"
        )
    # the field is linear in the covariance, so the sum of the K spectrograms
    # is the field of the unnormalised covariance
    total = product_field(filtered.T, np.conj(filtered), phi)
    return AvgSpectrogram(total=total, count=filtered.shape[0])


def _least_level(threshold: float, count: int) -> float:
    """The least double ``level`` with ``level / count >= threshold``.

    Division by a positive count is monotone in IEEE arithmetic, so
    ``total >= level`` selects exactly the cells where ``total / count >=
    threshold``.  ``threshold * count`` alone is an ulp off for 6-8 % of
    maxima at K = 3, 5, 7 and 20; for a normal threshold the level is within
    an ulp or two of it.
    """
    level = threshold * count
    while level / count < threshold:
        level = math.nextafter(level, math.inf)
    while (below := math.nextafter(level, -math.inf)) / count >= threshold:
        level = below
    return level


def estimate_mask(avg: AvgSpectrogram) -> MaskEstimate:
    """Threshold the averaged spectrograms rho at a quarter of their maximum.

    The sum ``avg.total`` is thresholded at :func:`_least_level`, so the
    cells, ``threshold`` and ``max_rho`` equal those of ``avg.rho`` bit for
    bit and no field is divided by K.  Ties at the threshold are included.
    An identically-zero rho has no scale to threshold against and raises
    :class:`NumericError` rather than returning an empty mask, since the
    noise model guarantees rho > 0 almost surely and silence would hide
    upstream bugs.  For the same reason a NaN or infinite rho raises it too.
    """
    # the max of total / count is the max of total divided, by monotonicity
    max_rho = float(avg.total.max()) / avg.count
    if not np.isfinite(max_rho):
        raise NumericError(f"averaged spectrograms are not finite (max {max_rho})")
    if max_rho <= 0.0:
        raise NumericError("averaged spectrograms are identically zero")
    threshold = max_rho / 4.0
    cells = avg.total >= _least_level(threshold, avg.count)
    return MaskEstimate(cells=cells, threshold=threshold, max_rho=max_rho)

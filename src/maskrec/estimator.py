"""The average of the observed spectrograms and the quantile-threshold mask estimate.

The estimator thresholds the average of the spectrograms of the filtered
observations at one quarter of its maximum.  The threshold is relative, so
the estimate is invariant under rescaling of the noise level: for a fixed
seed the returned mask is bit-identical for every sigma in
``noise.SIGMA_RANGE``.  Nothing in this module accepts a noise variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError
from .tfcore import Window, product_field


@dataclass(frozen=True)
class AvgSpectrogram:
    """Mean of the spectrograms of K filtered realizations, in plane-density units."""

    rho: np.ndarray
    count: int


@dataclass(frozen=True)
class MaskEstimate:
    """Thresholded mask: cells where rho >= threshold = max_rho / 4."""

    cells: np.ndarray
    threshold: float
    max_rho: float


def average_spectrogram(filtered: np.ndarray, phi: Window) -> AvgSpectrogram:
    """rho(z) = mean_k of n * |stft(y_k, phi)(z)|^2.

    The density scaling matches the field of ``locop.theta``: at unit noise
    variance the expectation of rho is exactly that field.  The factor n
    cancels the transform's 1/sqrt(n), so rho is the quadratic form
    ``<A pi(z)phi, pi(z)phi>`` of the sample covariance ``(1/K) sum_k y_k y_k^H``,
    read from the lag band of its factors: no n x n matrix is formed.
    """
    filtered = np.atleast_2d(np.asarray(filtered, dtype=np.complex128))
    if filtered.shape[0] < 1 or filtered.size == 0:
        raise ConfigurationError("average_spectrogram needs at least one realization")
    n = phi.n
    if filtered.shape[1] != n:
        raise ConfigurationError(
            f"realization length {filtered.shape[1]} != window length {n}"
        )
    count = filtered.shape[0]
    # the field is linear in the covariance, so the 1/K goes on the real field
    rho = product_field(filtered.T, np.conj(filtered), phi)
    rho /= count
    return AvgSpectrogram(rho=rho, count=count)


def estimate_mask(avg: AvgSpectrogram) -> MaskEstimate:
    """Threshold the averaged spectrograms rho at a quarter of their maximum.

    Ties at the threshold are included.  An identically-zero rho has no
    scale to threshold against and raises :class:`NumericError` rather than
    returning an empty mask, since the noise model guarantees rho > 0
    almost surely and silence would hide upstream bugs.  For the same
    reason a NaN or infinite rho raises it too.
    """
    max_rho = float(avg.rho.max())
    if not np.isfinite(max_rho):
        raise NumericError(f"averaged spectrograms are not finite (max {max_rho})")
    if max_rho <= 0.0:
        raise NumericError("averaged spectrograms are identically zero")
    threshold = max_rho / 4.0
    return MaskEstimate(cells=avg.rho >= threshold, threshold=threshold, max_rho=max_rho)

"""Time-frequency localization operators, their spectra and the field theta.

``assemble_locop`` realizes the analyze -> mask -> synthesize map as an
n x n Hermitian matrix.  On the full lattice the analysis map is an
isometry, so the operator is positive semidefinite with eigenvalues in
[0, 1] and trace equal to the mask measure, exactly.

:func:`spectrum` computes the eigenvalues only; the eigenvectors are
computed on first read, by the ``maskrec verify`` rows that check the
eigenbasis.

The auxiliary field computed by :func:`theta` is the noise-free profile the
average of the observed spectrograms concentrates around: the lattice
quadratic form of H^2.  Its normalization is fixed once by the analytically
forced case (full mask -> field identically 1, equivalently a factor n on
raw squared transform values) and the same scale is used everywhere in the
package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, NumericError
from .maskgeom import Mask, measure
from .tfcore import Window, mask_operator, offset_distances, product_field, stft

_EIG_RANGE_TOL = 1e-8

#: Side of the square blocks in which :func:`spectrum` compares H with its
#: conjugate transpose, so the check needs no n x n temporaries.
_HERMITIAN_BLOCK = 128


def assemble_locop(mask: Mask, g: Window) -> np.ndarray:
    """Matrix of f -> istft(chi * stft(f, g), g); Hermitian and PSD.

    This is ``(1/n) sum_{z in mask} pi(z)g (pi(z)g)^H``, the adjoint of the
    lattice quadratic form applied to the mask indicator.  The result is
    read-only, so :func:`spectrum` keeps it without a copy.
    """
    H = mask_operator(mask.cells, g)
    H /= g.n
    H.flags.writeable = False
    return H


@dataclass(frozen=True)
class LocOpSpectrum:
    """Eigenvalues of a localization operator, with the operator itself.

    ``eigenvalues`` come from ``eigvalsh``, descending and clamped to
    [0, 1].  ``H`` is read-only.  ``eigenvectors`` runs one ``eigh`` on
    first read; its eigenvalues match ``eigenvalues`` to about 1e-15, so
    consumers that pair the two mix the calls at that level.
    """

    eigenvalues: np.ndarray
    H: np.ndarray
    omega_measure: float

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Read-only orthonormal eigenvectors; column m belongs to ``eigenvalues[m]``."""
        try:
            _, vecs = np.linalg.eigh(self.H)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigendecomposition failed: {exc}") from exc
        vecs.flags.writeable = False
        return vecs[:, ::-1]


def spectrum(H: np.ndarray, omega_measure: float) -> LocOpSpectrum:
    """Eigenvalues of a Hermitian localization operator.

    Before the eigensolve, a non-finite entry raises :class:`NumericError`
    and an entry further than 1e-10 from the conjugate of its transposed
    entry raises :class:`ConfigurationError`.  Eigenvalues outside
    [-1e-8, 1 + 1e-8] indicate a broken operator and raise
    :class:`NumericError`; smaller excursions are clamped to keep downstream
    squared sums stable.  A read-only ``H`` is kept as it is;
    a writeable one is copied, so later writes by the caller cannot
    change the spectrum's eigenvectors or theta.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ConfigurationError(f"operator must be square, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise NumericError("operator has non-finite entries")
    n, b = H.shape[0], _HERMITIAN_BLOCK
    for i in range(0, n, b):
        for j in range(i, n, b):
            upper, lower = H[i : i + b, j : j + b], H[j : j + b, i : i + b]
            defect = np.max(np.abs(upper - lower.conj().T))
            # `not <=`, so that a NaN defect fails as well
            if not defect <= 1e-10:
                raise ConfigurationError("operator is not Hermitian")
    if H.flags.writeable:
        H = H.copy()
        H.flags.writeable = False
    try:
        vals = np.linalg.eigvalsh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue solve failed: {exc}") from exc
    if vals.min() < -_EIG_RANGE_TOL or vals.max() > 1 + _EIG_RANGE_TOL:
        raise NumericError(
            f"eigenvalues outside [0, 1] beyond tolerance: "
            f"min={vals.min()!r} max={vals.max()!r}"
        )
    return LocOpSpectrum(
        eigenvalues=np.clip(vals[::-1], 0.0, 1.0),
        H=H,
        omega_measure=float(omega_measure),
    )


@dataclass(frozen=True)
class ThetaField:
    """Noise-free profile of the averaged observed spectrograms at unit variance."""

    values: np.ndarray


def theta(spec: LocOpSpectrum, phi: Window) -> ThetaField:
    """Field theta(z) = sum_m lambda_m^2 * n * |stft(f_m, phi)(z)|^2.

    Bounded by 1 everywhere; its plane integral is at most the mask
    measure.  For the full mask it is identically 1.  It is computed as the
    quadratic form of H^2, with no eigenvectors, from the lag band of H^2
    alone.
    """
    return ThetaField(values=product_field(spec.H, spec.H, phi))


def _density(g: Window, phi: Window) -> np.ndarray:
    """Cross-ambiguity density |stft(g, phi)|^2, a unit-mass lattice kernel."""
    return np.abs(stft(g.samples, phi)) ** 2


def ambiguity_moment(f: Window, window: Window) -> float:
    """First absolute moment of the cross-ambiguity density of two windows.

    ``sum_z |stft(f, window)(z)|^2 |z|`` with |z| the torus distance from 0
    in continuous units; the raw squared transform integrates to 1, so this
    matches the continuum moment of the unit-mass density.
    """
    return float(np.sum(_density(f, window) * offset_distances(window.grid)))


@dataclass(frozen=True)
class LargenessCheck:
    """Outcome of the measure-dominates-perimeter condition."""

    passed: bool
    lhs: float
    rhs: float


def check_largeness(mask: Mask, g: Window) -> LargenessCheck:
    """Check |mask| >= max(2, 8 * moment(g, g) * perimeter)."""
    lhs = measure(mask)
    rhs = float(max(2.0, 8.0 * ambiguity_moment(g, g) * mask.perimeter))
    return LargenessCheck(passed=bool(lhs >= rhs), lhs=lhs, rhs=rhs)


def plateau_violations(spec: LocOpSpectrum) -> int:
    """Count of m <= |mask|/2 with lambda_m < 3/4 (expected 0 under largeness)."""
    m_half = int(np.floor(spec.omega_measure / 2))
    return int(np.count_nonzero(spec.eigenvalues[: max(m_half, 0)] < 0.75))

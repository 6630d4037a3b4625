"""The invariant suite of ``maskrec verify`` and the lattice identities it checks.

Each grid size runs a table of rows ``(name, tolerance, defect)``.  A row's
``defect`` takes no arguments and builds what only that row reads; the
objects several rows read are built once per size, before the table.  Rows
run in table order, so they draw from the suite's rng in that order.

An identity that an acceptance criterion checks too is a module-level
function of explicit inputs, which the row and the criterion both call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimator, locop, maskgeom, noise, tfcore
from .errors import ConfigurationError
from .locop import LocOpSpectrum
from .maskgeom import Mask, make_mask
from .tfcore import TFGrid, Window, make_window

#: Mask bank of the plateau rows: shapes that satisfy the largeness
#: condition (the full plane, wide bands, the plane with a small hole).
SPECTRUM_BANK: tuple[tuple[str, int, str], ...] = (
    ("full-64", 64, "full"),
    ("band-96-128", 128, "rect:x0=0,f0=0,w=128,h=96"),
    ("band-160-256", 256, "rect:x0=0,f0=0,w=256,h=160"),
    ("holey-plane-64", 64, "not:disc:measure=4"),
    ("holey-plane-128", 128, "not:disc:measure=8"),
)

#: Share of the cells inside a random verify mask.
_RANDOM_FILL = 0.2

#: Number of points z at which the reproducing identity is checked.
_REPRODUCING_POINTS = 12


@dataclass(frozen=True)
class CheckResult:
    name: str
    defect: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.defect <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: defect={self.defect:.3e} tol={self.tolerance:.3e}"


def _smooth(mask: Mask, q: np.ndarray) -> np.ndarray:
    """Cyclic convolution of the mask indicator with the kernel q."""
    chi = mask.cells.astype(float)
    return np.real(np.fft.ifft2(np.fft.fft2(chi) * np.fft.fft2(q)))


def trace_defect(mask: Mask, H: np.ndarray) -> float:
    """|Re tr H - |mask||: the trace of a localization operator is its mask's measure."""
    return abs(float(np.trace(H).real) - maskgeom.measure(mask))


def eigen_expansion_defect(spec: LocOpSpectrum, rows: np.ndarray) -> float:
    """Max gap between ``H y`` and ``sum_m lambda_m <y, f_m> f_m`` over the rows y."""
    coeffs = rows @ np.conj(spec.eigenvectors)
    rebuilt = (coeffs * spec.eigenvalues) @ spec.eigenvectors.T
    return float(np.max(np.abs(noise.filter_batch(rows, spec.H) - rebuilt)))


def sigma_invariance_defect(H: np.ndarray, phi: Window, count: int, seed: int) -> float:
    """0 when the masks estimated from one seed of complex noise at sigma 0.1,
    1 and 10 are equal, else 1."""
    grid = TFGrid(H.shape[0])
    first, *rest = (
        estimator.estimate_mask(estimator.average_spectrogram(noise.filter_batch(
            noise.sample_noise(grid, count, sigma, seed=seed).realizations, H
        ), phi)).cells
        for sigma in (0.1, 1.0, 10.0)
    )
    return 0.0 if all(np.array_equal(e, first) for e in rest) else 1.0


def bank_plateau_violations(max_n: float = float("inf")) -> dict[str, int]:
    """Name -> plateau violations of each bank mask on a grid of at most ``max_n``
    that passes the largeness condition, under the Gaussian window."""
    violations = {}
    for name, n, shape in SPECTRUM_BANK:
        if n > max_n:
            continue
        grid = TFGrid(n)
        mask = make_mask(grid, shape)
        g = make_window(grid, tfcore.WINDOW_GAUSSIAN)
        if locop.check_largeness(mask, g).passed:
            H = locop.assemble_locop(mask, g)
            violations[name] = locop.plateau_violations(locop.spectrum(H, maskgeom.measure(mask)))
    return violations


def theta_first_moment(H: np.ndarray, phi: Window, mask: Mask, g: Window) -> float:
    """Defect of the first-moment identity, computed by two independent routes.

    The field of ``H = assemble_locop(mask, g)``, ``<H pi(z)phi, pi(z)phi>``
    (equal to ``sum_m lambda_m * n * |stft(f_m, phi)(z)|^2``), read from the
    lag band of H with no eigensolve, must equal the cyclic convolution of
    the mask indicator with ``|stft(g, phi)|^2`` (the latter already carries
    one factor of the cell measure), computed by 2-D FFTs.  Returns the
    maximum absolute difference over the lattice; expected < 1e-8.
    """
    lhs = tfcore.product_field(H, np.eye(H.shape[0]), phi)
    return float(np.max(np.abs(lhs - _smooth(mask, locop._density(g, phi)))))


def double_orthogonality_defect(spec: LocOpSpectrum, mask: Mask, g: Window, m_max: int) -> float:
    """Defect of sum_{z in mask} stft(f_m)(z) conj(stft(f_n)(z)) = lambda_m delta_mn.

    The lattice sum over the mask (counting norm) carries the cell measure
    through the transform normalization, so it reproduces the eigenvalues
    exactly.  Returns the max absolute defect over m, n <= m_max.
    """
    n = spec.H.shape[0]
    if m_max > n:
        raise ConfigurationError(f"m_max {m_max} exceeds grid size {n}")
    transforms = tfcore.stft(spec.eigenvectors.T[:m_max], g)
    gram = np.einsum("mxf,nxf->mn", transforms * mask.cells[None], np.conj(transforms))
    return float(np.max(np.abs(gram - np.diag(spec.eigenvalues[:m_max]))))


def far_field_defect(theta: np.ndarray, mask: Mask, g: Window, phi: Window) -> float:
    """Max violation of the pointwise tail bound on |chi - theta|.

    For each cell z let R_z be the torus distance to the nearest
    opposite-value cell; then ``|chi(z) - theta(z)|``, for the theta field
    of ``assemble_locop(mask, g)`` under phi, is bounded by four times the
    mass of |stft(g, phi)|^2 outside radius R_z.  Returns the maximum of
    (left side - right side); values <= 0 mean the bound holds.
    """
    chi = mask.cells.astype(float)
    inside = maskgeom.distance_field(~mask.cells)
    outside = maskgeom.distance_field(mask.cells)
    radius = np.where(mask.cells, inside, outside)

    q = locop._density(g, phi)
    dist = tfcore.offset_distances(mask.grid)
    order = np.argsort(dist.ravel(), kind="stable")
    sorted_dist = dist.ravel()[order]
    # tail(R) = mass at offsets with |z| >= R
    suffix = np.concatenate([np.cumsum(q.ravel()[order][::-1])[::-1], [0.0]])

    idx = np.searchsorted(sorted_dist, radius.ravel(), side="left")
    tails = suffix[idx].reshape(radius.shape)
    return float(np.max(np.abs(chi - theta) - 4.0 * tails))


def regularization_defect(mask: Mask, g: Window, phi: Window) -> tuple[float, float]:
    """L1 distance between the smoothed and raw indicators, with its bound.

    Returns ``(lhs, rhs)`` where lhs = ||chi * psi - chi||_1 for the
    unit-mass smoothing kernel psi = |stft(g, phi)|^2 and
    rhs = moment(g, phi) * perimeter.  The bound holds exactly on the
    lattice; callers compare with a small slack for grid effects.
    """
    q = locop._density(g, phi)
    defect = _smooth(mask, q) - q.sum() * mask.cells
    lhs = float(np.sum(np.abs(defect)) * mask.grid.cell_measure)
    return lhs, locop.ambiguity_moment(g, phi) * mask.perimeter


def _reproducing_defect(g: Window, rng: np.random.Generator) -> float:
    """Brute-force kernel-sum check of the lattice reproducing identity."""
    grid = g.grid
    n = grid.n
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    V = tfcore.stft(f, g)
    # all time-frequency shifts of g, flattened as pi(x, xi) -> row x*n+xi
    t = np.arange(n)
    phases = np.exp(2j * np.pi * np.outer(t, t) / n)  # [xi, t]
    shifts = np.einsum("xt,ft->xft", tfcore.translates(g), phases).reshape(n * n, n)
    worst = 0.0
    zs = rng.integers(0, n, size=(_REPRODUCING_POINTS, 2))
    for zx, zf in zs:
        pz = tfcore.tf_shift(g.samples, (int(zx), int(zf)))
        kernel = shifts @ np.conj(pz)  # K(z, w) over all w
        total = np.dot(V.ravel(), kernel) * grid.cell_measure
        worst = max(worst, abs(total - V[zx, zf]))
    return worst


def _size_rows(n: int, seed: int, rng: np.random.Generator) -> list:
    """The rows at grid size n, in order, over the objects they share."""
    grid = TFGrid(n)
    g = phi = make_window(grid, tfcore.WINDOW_GAUSSIAN)
    signals = rng.standard_normal((100, n)) + 1j * rng.standard_normal((100, n))
    f = signals[0]
    F = tfcore.stft(f, g)
    disc = maskgeom.disc_mask(grid, grid.plane_measure / 8)
    H = locop.assemble_locop(disc, g)
    spec = locop.spectrum(H, maskgeom.measure(disc))
    th = locop.theta(spec, phi).values
    draws = noise.sample_noise(grid, 10, 1.0, seed=seed + n).realizations

    def covariance():
        z0 = (n // 3, (2 * n) // 3)
        return float(np.max(np.abs(
            np.abs(tfcore.stft(tfcore.tf_shift(f, z0), g)) - np.abs(np.roll(F, z0, axis=(0, 1)))
        )))

    def adjoint():
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return float(abs(np.sum(F * np.conj(G)) - np.sum(f * np.conj(tfcore.istft(G, g)))))

    def trace():
        rand_mask = Mask(rng.random((n, n)) < _RANDOM_FILL)
        rand_H = locop.assemble_locop(rand_mask, g)
        return max(trace_defect(disc, H), trace_defect(rand_mask, rand_H))

    def monotonicity():
        grown = maskgeom.dilate(disc, 2.5 * grid.cell_side)
        spec_grown = locop.spectrum(locop.assemble_locop(grown, g), maskgeom.measure(grown))
        return float(np.max(spec.eigenvalues - spec_grown.eigenvalues))

    def regularization(model: Window):
        lhs, rhs = regularization_defect(disc, model, phi)
        return lhs - 1.1 * rhs

    def geometry():
        a, b, c = (Mask(rng.random((n, n)) < _RANDOM_FILL) for _ in range(3))
        sym_ab, sym_ba, sym_ac, sym_bc = (
            maskgeom.error_report(p, q.cells).sym_diff_measure
            for p, q in ((a, b), (b, a), (a, c), (b, c))
        )
        return max(
            abs(maskgeom.perimeter(maskgeom.rect_mask(grid, 1, 2, 3, 2))
                - 2 * (3 + 2) * grid.cell_side),
            abs(sym_ab - sym_ba),
            sym_ac - (sym_ab + sym_bc),
        )

    return [
        # one signal at a time: all 100 transforms at once take 100 n^2 16 B
        ("tfcore.isometry", 1e-10, lambda: max(
            abs(float(np.sum(np.abs(tfcore.stft(s, g)) ** 2) - np.sum(np.abs(s) ** 2)))
            for s in signals
        )),
        ("tfcore.covariance", 1e-10, covariance),
        ("tfcore.adjoint", 1e-10, adjoint),
        # the brute-force kernel sum runs at n <= 32 only
        *([("tfcore.reproducing", 1e-9, lambda: _reproducing_defect(g, rng))] if n <= 32 else []),
        ("locop.trace", 1e-9, trace),
        ("locop.eigenvector_gram", 1e-9, lambda: float(np.max(np.abs(
            spec.eigenvectors.conj().T @ spec.eigenvectors - np.eye(n)
        )))),
        ("locop.eigenvalue_sum", 1e-9,
         lambda: abs(float(spec.eigenvalues.sum()) - spec.omega_measure)),
        ("locop.monotonicity", 1e-9, monotonicity),
        ("locop.double_orth", 1e-8,
         lambda: double_orthogonality_defect(spec, disc, g, m_max=8)),
        ("locop.first_moment", 1e-8, lambda: theta_first_moment(H, phi, disc, g)),
        ("locop.theta_bounds", 1e-9, lambda: max(
            float(th.max()) - 1.0,
            float(th.sum() * grid.cell_measure) - spec.omega_measure,
            0.0,
        )),
        ("locop.theta_l1_bound", 0.0,
         lambda: float(np.sum(np.abs(disc.cells - th)) * grid.cell_measure)
         - 2.0 * locop.ambiguity_moment(g, phi) * disc.perimeter),
        ("locop.far_field", 1e-8, lambda: far_field_defect(th, disc, g, phi)),
        ("locop.regularization", 0.0, lambda: regularization(g)),
        ("locop.regularization_t2", 0.0,
         lambda: regularization(make_window(grid, tfcore.WINDOW_GAUSSIAN_T2))),
        ("noise.parseval", 1e-9, lambda: float(np.max(np.abs(
            np.sum(np.abs(draws @ np.conj(spec.eigenvectors)) ** 2, axis=1)
            - np.sum(np.abs(draws) ** 2, axis=1)
        )))),
        ("noise.eigen_expansion", 1e-9, lambda: eigen_expansion_defect(spec, draws)),
        ("noise.sigma_scaling", 0.0, lambda: float(np.max(np.abs(
            noise.sample_noise(grid, 10, 2.0, seed=seed + n).realizations
            - 2.0 * draws
        )))),
        ("estimator.sigma_invariance", 0.0,
         lambda: sigma_invariance_defect(H, phi, 8, seed + n)),
        ("maskgeom.geometry", 1e-12, geometry),
    ]


def run_verify(
    ns: tuple[int, ...] = (8, 16, 32),
    seed: int = 20240901,
) -> list[CheckResult]:
    """Run every module invariant at each size of ``ns``, up to the simulations' 512."""
    if not ns:
        raise ConfigurationError("verify needs at least one size")
    if len(set(ns)) != len(ns):
        raise ConfigurationError(f"verify sizes must not repeat, got {list(ns)}")
    for n in ns:
        if not 8 <= n <= 512:
            raise ConfigurationError(f"verify sizes must lie in [8, 512], got {n}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    # size n draws its noise with the Philox key seed + n, below 2**64
    if seed + max(ns) >= 1 << 64:
        raise ConfigurationError(f"seed + n must be below 2**64, got seed {seed}")
    rng = np.random.default_rng(seed)
    checks = [
        CheckResult(f"{name}[n={n}]", defect(), tolerance)
        for n in ns
        for name, tolerance, defect in _size_rows(n, seed, rng)
    ]

    # empty-mask scenario passes operator checks with a zero spectrum
    g = make_window(TFGrid(ns[0]), tfcore.WINDOW_GAUSSIAN)
    H0 = locop.assemble_locop(Mask(np.zeros((ns[0], ns[0]), bool)), g)
    defect = max(float(np.max(np.abs(H0))), float(locop.spectrum(H0, 0.0).eigenvalues.max()))
    checks.append(CheckResult("locop.empty_mask", defect, 1e-12))

    # plateau on small bank members that satisfy the largeness condition
    checks += [
        CheckResult(f"locop.plateau[{name}]", float(count), 0.0)
        for name, count in bank_plateau_violations(max(ns)).items()
    ]
    return checks

"""Binary masks on the time-frequency torus: construction, geometry, errors.

Conventions: masks are boolean n x n arrays indexed ``cells[x, xi]`` (time,
frequency).  Measure counts cells times the cell measure 1/n.  The perimeter
counts boundary edges in the 4-neighborhood times the cell side 1/sqrt(n);
this edge-count convention is exact for axis-aligned sets and overshoots the
Euclidean length of smooth curves by at most a factor sqrt(2) (4/pi for a
disc).  Distances between cells are center-to-center torus distances in
continuous units.  Neighborhoods of a set use a strict inequality
``dist < r``; containment-radius comparisons are non-strict so that a
reported radius certifies containment at that exact value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .tfcore import TFGrid, _cell_distances_sq


@dataclass(frozen=True)
class Mask:
    """A binary region of the time-frequency plane.

    ``cells`` is a read-only square copy, so the geometry cached on the mask
    never goes stale; the grid is derived from its side.
    """

    cells: np.ndarray

    def __post_init__(self) -> None:
        cells = np.array(self.cells, dtype=bool)
        if cells.ndim != 2 or cells.shape[0] != cells.shape[1]:
            raise ConfigurationError(f"mask cells must be square, got shape {cells.shape}")
        TFGrid(cells.shape[0])  # rejects a side below 4
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    @property
    def grid(self) -> TFGrid:
        return TFGrid(self.cells.shape[0])

    @cached_property
    def boundary_distance(self) -> np.ndarray:
        """Read-only torus distance to the boundary cells, computed once per mask."""
        dist = distance_field(boundary_cells(self))
        dist.flags.writeable = False
        return dist

    @cached_property
    def perimeter(self) -> float:
        """The :func:`perimeter` of the mask, computed once per mask."""
        return perimeter(self)


def measure(mask: Mask) -> float:
    """Plane measure of the mask: (number of cells) / n."""
    return float(np.count_nonzero(mask.cells)) * mask.grid.cell_measure


def perimeter(mask: Mask) -> float:
    """Boundary length: 4-neighborhood edge count on the torus times 1/sqrt(n)."""
    cells = mask.cells
    edges = 0
    for axis in (0, 1):
        edges += int(np.count_nonzero(cells != np.roll(cells, 1, axis=axis)))
    return edges * mask.grid.cell_side


def boundary_cells(mask: Mask) -> np.ndarray:
    """Cells of the mask adjacent to at least one cell outside it."""
    cells = mask.cells
    outside_neighbor = np.zeros_like(cells)
    for axis in (0, 1):
        for shift in (1, -1):
            outside_neighbor |= ~np.roll(cells, shift, axis=axis)
    return cells & outside_neighbor


def distance_field(source: np.ndarray) -> np.ndarray:
    """Exact Euclidean torus distance from every cell to a square source set.

    Returns distances in continuous units of the n-grid, n = len(source);
    +inf everywhere if the source is empty.  The squared distance in cells
    is an integer, found exactly by the separable transform (Saito-Toriwaki
    1994, Meijster et al. 2000) on the torus: pass 1 takes the circular
    distance g to the nearest source in the same frequency column, pass 2
    the minimum over frequency shifts s of g(x, xi +- s)^2 + s^2.
    """
    source = np.asarray(source, dtype=bool)
    if source.ndim != 2 or source.shape[0] != source.shape[1]:
        raise ConfigurationError(f"source must be square, got shape {source.shape}")
    n = source.shape[0]
    if not source.any():
        return np.full((n, n), np.inf)
    # squared distances stay below 2 n^2 (a sourceless column counts as n away)
    dtype = np.int32 if 2 * n * n < 2**31 else np.int64

    # pass 1, along time over two periods: the last source at or before x + n
    # and the next one at or after x; a sourceless column gives gaps above n
    rows = np.arange(2 * n, dtype=dtype)[:, None]
    twice = np.concatenate([source, source])
    last = np.maximum.accumulate(np.where(twice, rows, -n), axis=0)[n:]
    after = np.minimum.accumulate(np.where(twice, rows, 3 * n)[::-1], axis=0)[::-1][:n]
    d2 = np.minimum(rows[n:] - last, after - rows[:n])
    np.minimum(d2, n, out=d2)
    d2 *= d2

    # pass 2, along frequency: columns xi + s and xi - s of the doubled g^2;
    # no shift with s^2 >= the current maximum can lower any cell
    wide = np.concatenate([d2, d2], axis=1)
    shifted = np.empty_like(d2)
    for s in range(1, n // 2 + 1):
        if s % 8 == 1 and s * s >= d2.max():
            break
        np.minimum(wide[:, s : s + n], wide[:, n - s : 2 * n - s], out=shifted)
        shifted += s * s
        np.minimum(d2, shifted, out=d2)
    return np.sqrt(d2) * TFGrid(n).cell_side


def dilate(mask: Mask, r: float) -> Mask:
    """Open r-neighborhood of the mask (the mask itself is always included)."""
    if r < 0:
        raise ConfigurationError(f"dilation radius must be >= 0, got {r}")
    grown = mask.cells | (distance_field(mask.cells) < r)
    return Mask(grown)


@dataclass(frozen=True)
class ErrorReport:
    """Error metrics between a true mask and an estimate."""

    sym_diff_measure: float
    perimeter: float
    containment_radius: float
    ratio: float


def error_report(truth: Mask, estimate: np.ndarray) -> ErrorReport:
    """Compare the bool cell array of an estimate to the truth mask.

    ``containment_radius`` is the largest torus distance from an error cell
    to the boundary cells of the truth: 0 for a perfect estimate, +inf when
    the truth has no boundary but the error set is non-empty.  An error set
    lying exactly on boundary cells is floored at half a cell side so that
    a zero radius certifies a perfect estimate.  ``ratio`` is the error
    measure over the truth perimeter (+inf for a zero perimeter with a
    non-empty error set, 0 for a perfect estimate).
    """
    est = np.asarray(estimate)
    if est.dtype != bool or est.shape != truth.cells.shape:
        raise ConfigurationError(
            f"estimate must be a bool cell array of shape {truth.cells.shape}"
        )
    grid = truth.grid
    err = truth.cells ^ est
    sym = float(np.count_nonzero(err)) * grid.cell_measure
    perim = truth.perimeter
    if not err.any():
        radius = 0.0
    else:
        dist = truth.boundary_distance
        radius = max(float(dist[err].max()), 0.5 * grid.cell_side)
    if sym == 0.0:
        ratio = 0.0
    elif perim == 0.0:
        ratio = np.inf
    else:
        ratio = sym / perim
    return ErrorReport(
        sym_diff_measure=sym,
        perimeter=perim,
        containment_radius=radius,
        ratio=ratio,
    )


# ---------------------------------------------------------------------------
# Mask construction


def _closest_cells(grid: TFGrid, center: tuple[float, float], count: int) -> np.ndarray:
    """The ``count`` cells nearest the center; ties go to the lower flat index.

    Selection, not a sort: every cell strictly nearer than the count-th
    smallest distance, then the cells at that distance in flat order, which
    is the tie order of a stable sort.
    """
    if count == 0:
        return np.zeros((grid.n, grid.n), dtype=bool)
    d2 = _cell_distances_sq(grid, center).ravel()
    cut = np.partition(d2, count - 1)[count - 1]
    cells = d2 < cut
    ties = np.flatnonzero(d2 == cut)
    cells[ties[: count - np.count_nonzero(cells)]] = True
    return cells.reshape(grid.n, grid.n)


def disc_mask(grid: TFGrid, target_measure: float, center: tuple[float, float] | None = None) -> Mask:
    """Disc of the given measure, built by torus-distance thresholding.

    The resulting measure is within one cell of the target.
    """
    if not 0 <= target_measure <= grid.plane_measure:
        raise ConfigurationError(
            f"disc measure {target_measure} outside [0, {grid.plane_measure}]"
        )
    if center is None:
        center = (grid.n / 2, grid.n / 2)
    elif not np.all(np.isfinite(center)):
        raise ConfigurationError(f"disc center must be finite, got {center}")
    count = int(round(target_measure * grid.n))
    return Mask(_closest_cells(grid, center, count))


def rect_mask(grid: TFGrid, x0: int, f0: int, width: int, height: int) -> Mask:
    """Axis-aligned rectangle of width x height cells with corner (x0, f0)."""
    if width < 0 or height < 0:
        raise ConfigurationError("rectangle sides must be non-negative")
    if width > grid.n or height > grid.n:
        raise ConfigurationError("rectangle exceeds the grid")
    cells = np.zeros((grid.n, grid.n), dtype=bool)
    xs = (x0 % grid.n + np.arange(width)) % grid.n
    fs = (f0 % grid.n + np.arange(height)) % grid.n
    cells[np.ix_(xs, fs)] = True
    return Mask(cells)


_KV_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*=\s*([^,]+?)\s*$")

#: The parameters each kind of shape spec accepts; ``discs`` terms are discs.
_SHAPE_KEYS = {
    "disc": ("measure", "cx", "cf"),
    "discs": ("measure", "cx", "cf"),
    "annulus": ("measure", "hole", "cx", "cf"),
    "rect": ("x0", "f0", "w", "h"),
}


def _parse_kv(body: str, kind: str) -> dict[str, float]:
    params: dict[str, float] = {}
    if not body:
        return params
    for item in body.split(","):
        m = _KV_RE.match(item)
        if not m:
            raise ConfigurationError(f"cannot parse shape parameter {item!r}")
        key = m.group(1)
        if key not in _SHAPE_KEYS[kind]:
            raise ConfigurationError(
                f"unknown {kind} parameter {key!r}; expected {', '.join(_SHAPE_KEYS[kind])}"
            )
        if key in params:
            raise ConfigurationError(f"repeated {kind} parameter {key!r}")
        try:
            value = float(m.group(2))
        except ValueError:
            raise ConfigurationError(f"bad shape parameter value {item!r}") from None
        if not np.isfinite(value):
            raise ConfigurationError(f"shape parameter must be finite: {item!r}")
        params[key] = value
    return params


def _disc_params(p: dict[str, float], kind: str) -> tuple[float, tuple[float, float] | None]:
    """The measure and the optional centre of a disc-like spec; a centre needs cx and cf."""
    if "measure" not in p:
        raise ConfigurationError(f"{kind} spec requires measure=")
    if ("cx" in p) != ("cf" in p):
        raise ConfigurationError(f"{kind} center requires both cx= and cf=")
    return p["measure"], ((p["cx"], p["cf"]) if "cx" in p else None)


def make_mask(grid: TFGrid, spec: str) -> Mask:
    """Build a mask from a shape spec string.

    Supported forms (parameters are ``key=value`` pairs):

    - ``full`` / ``empty``
    - ``disc:measure=100`` with optional ``cx=..,cf=..`` (cell coordinates)
    - ``rect:x0=0,f0=0,w=8,h=4``
    - ``annulus:measure=8,hole=2`` with optional center: the disc of measure
      10 less the disc of measure 2
    - ``discs:(cx=..,cf=..,measure=..)+(...)`` for a union of discs, overlaps
      not compensated
    - ``image:PATH`` to load a PGM file (see :func:`read_mask_pgm`)
    - ``not:SPEC`` for the complement of any of the above
    """
    spec = spec.strip()
    if spec.startswith("not:"):
        inner = make_mask(grid, spec[4:])
        return Mask(~inner.cells)
    kind, _, body = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "full":
        return Mask(np.ones((grid.n, grid.n), bool))
    if kind == "empty":
        return Mask(np.zeros((grid.n, grid.n), bool))
    if kind == "image":
        return read_mask_pgm(body.strip(), grid)
    if kind == "disc":
        return disc_mask(grid, *_disc_params(_parse_kv(body, kind), kind))
    if kind == "rect":
        p = _parse_kv(body, kind)
        if not all(v.is_integer() for v in p.values()):
            raise ConfigurationError(f"rect values must be integers: {body!r}")
        try:
            return rect_mask(grid, int(p["x0"]), int(p["f0"]), int(p["w"]), int(p["h"]))
        except KeyError as exc:
            raise ConfigurationError(f"rect spec missing {exc}") from exc
    if kind == "annulus":
        p = _parse_kv(body, kind)
        target, center = _disc_params(p, kind)
        hole = p.get("hole", 0.0)
        if hole < 0 or target < 0:
            raise ConfigurationError("annulus measures must be non-negative")
        outer = disc_mask(grid, target + hole, center).cells
        return Mask(outer & ~disc_mask(grid, hole, center).cells)
    if kind == "discs":
        discs = []
        for part in body.split("+"):
            part = part.strip()
            if not (part.startswith("(") and part.endswith(")")):
                raise ConfigurationError(f"bad union-of-discs term {part!r}")
            target, center = _disc_params(_parse_kv(part[1:-1], kind), kind)
            discs.append((target, center))
        cells = np.zeros((grid.n, grid.n), dtype=bool)
        for target, center in discs:
            cells |= disc_mask(grid, target, center).cells
        return Mask(cells)
    raise ConfigurationError(f"unknown shape spec {spec!r}")


def scaled_shape_spec(spec: str, target_measure: float) -> str:
    """Rewrite the measure parameter of a disc/annulus spec (used by sweeps)."""
    kind, _, body = spec.partition(":")
    kind = kind.strip().lower()
    if kind not in ("disc", "annulus"):
        raise ConfigurationError(
            f"measure sweeps need a disc or annulus shape, got {spec!r}"
        )
    params = _parse_kv(body, kind)
    params["measure"] = target_measure
    # the shortest text that parses back to the same float, without a ".0"
    body = ",".join(f"{k}={v!r}".removesuffix(".0") for k, v in params.items())
    return f"{kind}:{body}"


# ---------------------------------------------------------------------------
# PGM serialization (binary P5, one byte per cell, 255 = inside the mask;
# row = time index, column = frequency index)


def write_mask_pgm(path: str | Path, cells: np.ndarray) -> None:
    """Write a bool cell array as a P5 image: 255 inside, 0 outside."""
    data = np.where(cells, 255, 0).astype(np.uint8)
    _write_pgm(path, data)


def write_field_pgm(path: str | Path, values: np.ndarray) -> float:
    """Quantize a non-negative field linearly to 8 bits of its maximum; write P5.

    Returns that maximum so callers can record it in a sidecar file and
    invert the image to band precision.
    """
    values = np.asarray(values, dtype=float)
    max_value = float(values.max()) if values.size else 0.0
    if max_value <= 0:
        data = np.zeros(values.shape, dtype=np.uint8)
    else:
        data = np.clip(np.round(values / max_value * 255.0), 0, 255).astype(np.uint8)
    _write_pgm(path, data)
    return max_value


def _write_pgm(path: str | Path, data: np.ndarray) -> None:
    height, width = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


# magic, width, height, maxval, separated by whitespace and #-comments; one
# whitespace byte ends the header
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d{1,9})" * 3 + rb"\s")


def read_mask_pgm(path: str | Path, grid: TFGrid | None = None) -> Mask:
    """Read a binary P5 image back into a mask; a cell is inside when 2 * value > maxval.

    The image must be square, and n x n for a given grid.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"cannot read mask image {str(path)!r}: {exc}") from exc
    header = _PGM_HEADER.match(raw)
    if header is None:
        raise ConfigurationError(f"{path}: no binary P5 PGM header")
    width, height, maxval = (int(t) for t in header.groups())
    if maxval > 255:
        raise ConfigurationError(f"{path}: 16-bit PGM not supported")
    if maxval == 0:
        raise ConfigurationError(f"{path}: PGM maxval must be positive")
    data = raw[header.end() : header.end() + width * height]
    if len(data) != width * height:
        raise ConfigurationError(f"{path}: truncated PGM payload")
    values = np.frombuffer(data, dtype=np.uint8).reshape(height, width)
    if values.max(initial=0) > maxval:
        raise ConfigurationError(f"{path}: PGM sample above maxval {maxval}")
    n = width if grid is None else grid.n
    if (height, width) != (n, n):
        raise ConfigurationError(f"{path}: image is {width}x{height}, not {n}x{n}")
    return Mask(values > maxval // 2)  # 2 * value > maxval in integers

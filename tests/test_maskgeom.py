import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import distance_transform_edt

from maskrec import errors, maskgeom
from maskrec.maskgeom import (
    Mask,
    dilate,
    disc_mask,
    error_report,
    make_mask,
    mask_pgm,
    measure,
    perimeter,
    read_mask_pgm,
    rect_mask,
)
from maskrec.tfcore import TFGrid

from helpers import brute_torus_distance, random_cells, stable_sort_closest_cells


def _full(n):
    return Mask(np.ones((n, n)))


def _empty(n):
    return Mask(np.zeros((n, n)))


def _single(n, at=(0, 0)):
    cells = np.zeros((n, n), bool)
    cells[at] = True
    return Mask(cells)


masks_16 = st.integers(0, 2**31 - 1).map(
    lambda s: Mask(random_cells(16, np.random.default_rng(s)))
)


# ---------------------------------------------------------------- measure/perimeter


def test_measure_full_empty_single():
    n = 16
    assert measure(_full(n)) == n
    assert measure(_empty(n)) == 0
    assert measure(_single(n)) == pytest.approx(1 / n)


def test_perimeter_full_and_empty_are_zero():
    assert perimeter(_full(16)) == 0
    assert perimeter(_empty(16)) == 0


def test_perimeter_single_cell():
    n = 16
    assert perimeter(_single(n)) == pytest.approx(4 / np.sqrt(n))


@pytest.mark.parametrize("a,b", [(1, 1), (3, 2), (5, 7), (16, 4)])
def test_perimeter_rectangle_oracle(a, b):
    n = 32
    mask = rect_mask(TFGrid(n), 2, 3, a, b)
    assert perimeter(mask) == pytest.approx(2 * (a + b) / np.sqrt(n))


def test_perimeter_full_width_band_wraps():
    # a band spanning the whole time axis only has its two frequency edges
    n = 32
    band = rect_mask(TFGrid(n), 0, 4, n, 6)
    assert perimeter(band) == pytest.approx(2 * n / np.sqrt(n))


# ---------------------------------------------------------------- construction


def test_disc_full_and_empty():
    grid = TFGrid(16)
    assert measure(disc_mask(grid, grid.plane_measure)) == 16
    assert measure(disc_mask(grid, 0.0)) == 0


def test_disc_measure_within_one_cell():
    grid = TFGrid(256)
    m = disc_mask(grid, 100.0)
    assert abs(measure(m) - 100.0) <= 1 / 256


def test_disc_rejects_oversized_target():
    with pytest.raises(errors.ConfigurationError):
        disc_mask(TFGrid(16), 17.0)


@pytest.mark.parametrize(
    "measure_, center",
    [(np.nan, None), (4.0, (np.nan, 3.0)), (4.0, (2.0, np.inf)), (4.0, (-np.inf, 1.0))],
)
def test_disc_rejects_a_non_finite_measure_or_center(measure_, center):
    with pytest.raises(errors.ConfigurationError):
        disc_mask(TFGrid(16), measure_, center)


def _centers(n):
    # half-integer (ties between cells), off-grid and out-of-range coordinates
    coordinate = st.one_of(
        st.integers(-4 * n, 4 * n).map(lambda k: k / 2),
        st.floats(-3.0 * n, 3.0 * n, allow_nan=False, allow_infinity=False),
    )
    return st.tuples(coordinate, coordinate)


@st.composite
def _closest_cells_args(draw):
    n = draw(st.integers(4, 40))
    return n, draw(_centers(n)), draw(st.integers(0, n * n))


@settings(max_examples=300, deadline=None)
@given(args=_closest_cells_args())
@example(args=(8, (4.0, 4.0), 0))
@example(args=(8, (4.0, 4.0), 64))
@example(args=(9, (4.5, 4.5), 4))
@example(args=(40, (-0.5, 79.5), 333))
def test_closest_cells_equals_the_stable_argsort(args):
    n, center, count = args
    cells = maskgeom._closest_cells(TFGrid(n), center, count)
    assert np.array_equal(cells, stable_sort_closest_cells(TFGrid(n), center, count))
    assert np.count_nonzero(cells) == count


def test_annulus_has_hole():
    grid = TFGrid(32)
    m = make_mask(grid, "annulus:measure=6,hole=2")
    assert abs(measure(m) - 6.0) <= 2 / 32
    center = (grid.n // 2, grid.n // 2)
    assert not m.cells[center]


def test_make_mask_specs():
    grid = TFGrid(32)
    assert measure(make_mask(grid, "full")) == 32
    assert measure(make_mask(grid, "empty")) == 0
    disc = make_mask(grid, "disc:measure=4,cx=8,cf=8")
    assert abs(measure(disc) - 4.0) <= 1 / 32
    assert disc.cells[8, 8]
    rect = make_mask(grid, "rect:x0=0,f0=0,w=32,h=8")
    assert measure(rect) == 8.0
    comp = make_mask(grid, "not:disc:measure=4")
    assert measure(comp) == pytest.approx(32 - measure(make_mask(grid, "disc:measure=4")))
    two = make_mask(grid, "discs:(cx=4,cf=4,measure=1)+(cx=24,cf=24,measure=1)")
    assert measure(two) == pytest.approx(2.0, abs=2 / 32)
    # once a RecursionError: every not: prefix recursed once
    disc = make_mask(grid, "disc:measure=4")
    assert np.array_equal(make_mask(grid, "not:" * 1200 + "disc:measure=4").cells, disc.cells)
    assert np.array_equal(make_mask(grid, "not: " * 1201 + "disc:measure=4").cells, ~disc.cells)


@pytest.mark.parametrize(
    "bad",
    ["blob:measure=3", "disc:radius=2", "disc:measure=9999", "rect:x0=0", "disc",
     "rect:x0=0,f0=0,w=-1,h=2", "rect:x0=0,f0=0,w=2,h=17", "annulus:measure=-1",
     "annulus:measure=4,hole=-1", "disc:measure", "discs:measure=3"],
)
def test_make_mask_bad_specs(bad):
    with pytest.raises(errors.ConfigurationError):
        make_mask(TFGrid(16), bad)


def test_scaled_shape_spec():
    assert maskgeom.scaled_shape_spec("disc:measure=100", 50.0) == "disc:measure=50"
    assert maskgeom.scaled_shape_spec("disc:measure=1", 12.5) == "disc:measure=12.5"
    with pytest.raises(errors.ConfigurationError):
        maskgeom.scaled_shape_spec("rect:x0=0,f0=0,w=4,h=4", 50.0)


@settings(max_examples=200, deadline=None)
@given(
    measure=st.floats(allow_nan=False, allow_infinity=False),
    cx=st.floats(allow_nan=False, allow_infinity=False),
)
# with 6 digits these became 123.456 (63209 cells at n=512, not 63210) and 100.123
@example(measure=123.4560547875, cx=100.1234567)
def test_scaled_shape_spec_round_trips_every_parameter(measure, cx):
    spec = maskgeom.scaled_shape_spec(f"annulus:measure=1,hole=2,cx={cx!r},cf=-3", measure)
    kind, _, body = spec.partition(":")
    params = maskgeom._parse_kv(body, kind)
    assert params == {"measure": measure, "hole": 2.0, "cx": cx, "cf": -3.0}
    assert not any(value.endswith(".0") for value in body.split(","))


# ---------------------------------------------------------------- distances


def test_distance_field_matches_brute_force():
    n = 16
    rng = np.random.default_rng(21)
    source = random_cells(n, rng, fill=0.1)
    got = maskgeom.distance_field(source)
    want = brute_torus_distance(source, n)
    assert np.max(np.abs(got - want)) < 1e-10


def _tiled_scipy_distance(source, n):
    # scipy's exact EDT of a 3 x 3 tiling: the centre tile sees every
    # minimal image of the source
    tiled = distance_transform_edt(np.tile(~source, (3, 3)))
    return tiled[n : 2 * n, n : 2 * n] * TFGrid(n).cell_side


def _oracle_sources(n):
    rng = np.random.default_rng(1000 + n)
    for fill in (0.0005, 0.05, 0.5, 1.0):
        source = random_cells(n, rng, fill=fill)
        if source.any():
            yield f"fill={fill}", source
    single = np.zeros((n, n), bool)
    single[tuple(rng.integers(n, size=2))] = True
    yield "single", single
    if n == 256:
        disc = disc_mask(TFGrid(n), 100.0)
        yield "disc-boundary", maskgeom.boundary_cells(disc)
        yield "disc-complement", ~disc.cells


@pytest.mark.parametrize("n", [4, 5, 9, 16, 17, 64, 256])
def test_distance_field_is_identical_to_the_tiled_scipy_edt(n):
    for label, source in _oracle_sources(n):
        got = maskgeom.distance_field(source)
        assert np.array_equal(got, _tiled_scipy_distance(source, n)), label


@pytest.mark.parametrize("second", [(9, 8), (8, 9)])
def test_distance_field_takes_the_shift_at_a_stop_check(second):
    # on the 18-torus with sources (0, 0) and (8, 9), the farthest cells are
    # at 9^2 + 1 after eight time shifts and at 9^2 after the ninth, so a
    # stop rule one shift too eager leaves them at 9^2 + 1; the transposed
    # (9, 8) would catch it were pass 2 to run along frequency
    n = 18
    source = np.zeros((n, n), bool)
    source[0, 0] = source[second] = True
    got = maskgeom.distance_field(source)
    assert np.array_equal(got, _tiled_scipy_distance(source, n))
    assert got.max() == 9 * TFGrid(n).cell_side


@pytest.mark.parametrize("n", [16, 17, 64, 256])
def test_distance_field_is_exact_from_one_source_cell(n):
    # every other time row has no source, so the value standing in for a
    # sourceless row must stay above the antipode's (n/2)^2 * 2;
    # the oracle is the min-image distance over the four torus images
    source = np.zeros((n, n), bool)
    source[3, 5] = True
    di, dj = np.abs(np.indices((n, n)) - np.array([3, 5])[:, None, None])
    d2 = np.minimum(di, n - di) ** 2 + np.minimum(dj, n - dj) ** 2
    got = maskgeom.distance_field(source)
    assert np.array_equal(got, np.sqrt(d2.astype(float)) * TFGrid(n).cell_side)
    half = n // 2
    assert got[(3 + half) % n, (5 + half) % n] == np.sqrt(2.0 * half * half) * TFGrid(n).cell_side


@pytest.mark.parametrize("shape", [(16, 8), (16,), (2, 16, 16)])
def test_distance_field_rejects_a_non_square_source(shape):
    with pytest.raises(errors.ConfigurationError, match="square"):
        maskgeom.distance_field(np.zeros(shape, bool))


def test_distance_field_empty_source_is_infinite():
    d = maskgeom.distance_field(np.zeros((16, 16), bool))
    assert np.all(np.isinf(d))


def test_boundary_distance_is_computed_once_and_read_only():
    n = 16
    rng = np.random.default_rng(22)
    m = Mask(random_cells(n, rng))
    d = m.boundary_distance
    assert d is m.boundary_distance
    want = brute_torus_distance(maskgeom.boundary_cells(m), n)
    assert np.max(np.abs(d - want)) < 1e-10
    with pytest.raises(ValueError):
        d[0, 0] = 0.0


def test_truth_perimeter_is_computed_once(monkeypatch):
    n = 16
    rng = np.random.default_rng(23)
    truth = Mask(random_cells(n, rng))
    want = perimeter(truth)
    calls = []
    real = maskgeom.perimeter
    monkeypatch.setattr(maskgeom, "perimeter", lambda m: calls.append(m) or real(m))
    for _ in range(3):
        error_report(truth, random_cells(n, rng))
    assert len(calls) == 1 and calls[0] is truth
    assert truth.perimeter == want


def test_cached_geometry_ignores_later_writes_to_the_callers_array():
    n = 16
    cells = np.zeros((n, n), bool)
    cells[2:6, 2:6] = True
    m = Mask(cells)
    assert m.perimeter == 4.0
    d = m.boundary_distance.copy()
    cells[10:14, 10:14] = True
    assert m.perimeter == perimeter(m) == 4.0
    assert np.array_equal(m.boundary_distance, d)
    assert np.count_nonzero(m.cells) == 16
    with pytest.raises(ValueError):
        m.cells[0, 0] = True


@pytest.mark.parametrize("n", [4, 16, 17])
def test_mask_is_its_cells_and_derives_its_grid(n):
    m = Mask(np.zeros((n, n), bool))
    assert [f.name for f in dataclasses.fields(Mask)] == ["cells"]
    assert m.grid == TFGrid(n)


@pytest.mark.parametrize("shape", [(16,), (8, 16), (2, 2), (4, 4, 4)])
def test_mask_rejects_cells_that_are_not_a_square_grid(shape):
    with pytest.raises(errors.ConfigurationError):
        Mask(np.zeros(shape, bool))


@settings(max_examples=20, deadline=None)
@given(a=masks_16, b=masks_16)
def test_error_report_perimeter_is_the_truth_perimeter(a, b):
    assert error_report(a, b.cells).perimeter == perimeter(a)


def test_boundary_distance_is_never_negative():
    m = disc_mask(TFGrid(16), 4.0)
    assert not (m.boundary_distance < 0.0).any()


def test_boundary_distance_is_below_the_torus_diameter():
    m = disc_mask(TFGrid(16), 4.0)
    diameter = np.sqrt(2) * 16 / np.sqrt(16)
    assert (m.boundary_distance < diameter + 1).all()


def test_boundary_distance_of_a_single_cell():
    n = 16
    m = _single(n, at=(5, 5))
    got = m.boundary_distance < 1.5 / np.sqrt(n)
    want = np.zeros((n, n), bool)
    want[4:7, 4:7] = True
    assert np.array_equal(got, want)


def test_dilate_zero_radius_identity():
    m = disc_mask(TFGrid(16), 4.0)
    assert np.array_equal(dilate(m, 0.0).cells, m.cells)


def test_dilate_rejects_a_negative_radius():
    with pytest.raises(errors.ConfigurationError, match="radius"):
        dilate(disc_mask(TFGrid(16), 4.0), -0.5)


def test_dilate_empty_stays_empty():
    m = _empty(16)
    assert not dilate(m, 3.0).cells.any()


def test_dilate_single_cell_plus_shape():
    n = 16
    m = _single(n, at=(8, 8))
    got = dilate(m, 1.1 / np.sqrt(n)).cells
    assert got.sum() == 5
    assert got[8, 8] and got[7, 8] and got[9, 8] and got[8, 7] and got[8, 9]


def test_dilate_matches_brute_force():
    n = 16
    rng = np.random.default_rng(22)
    cells = random_cells(n, rng, fill=0.15)
    m = Mask(cells)
    r = 1.8 / np.sqrt(n)
    want = cells | (brute_torus_distance(cells, n) < r)
    assert np.array_equal(dilate(m, r).cells, want)


# ---------------------------------------------------------------- error reports


def test_error_report_perfect_estimate():
    m = disc_mask(TFGrid(16), 4.0)
    rep = error_report(m, m.cells)
    assert rep.sym_diff_measure == 0.0
    assert rep.perimeter == pytest.approx(perimeter(m))
    assert rep.containment_radius == 0.0
    assert rep.ratio == 0.0


def test_error_report_complement_estimate():
    n = 16
    m = disc_mask(TFGrid(n), 4.0)
    rep = error_report(m, ~m.cells)
    assert rep.sym_diff_measure == pytest.approx(float(n))


def test_error_report_dilated_ring():
    n = 32
    truth = disc_mask(TFGrid(n), 6.0)
    grown = dilate(truth, 1.01 / np.sqrt(n))
    ring = int(grown.cells.sum() - truth.cells.sum())
    rep = error_report(truth, grown.cells)
    assert rep.sym_diff_measure == pytest.approx(ring / n)
    assert rep.containment_radius <= 1.5 / np.sqrt(n)


def test_error_report_zero_radius_only_for_perfect_estimate():
    # an estimate missing exactly one boundary cell has a non-zero radius
    n = 16
    truth = disc_mask(TFGrid(n), 5.0)
    border = np.argwhere(maskgeom.boundary_cells(truth))[0]
    est = truth.cells.copy()
    est[tuple(border)] = False
    rep = error_report(truth, est)
    assert rep.sym_diff_measure > 0
    assert rep.containment_radius == pytest.approx(0.5 / np.sqrt(n))


def test_error_report_infinite_ratio_for_boundaryless_truth():
    n = 16
    rep = error_report(_full(n), _single(n).cells)
    assert rep.ratio == np.inf
    assert rep.containment_radius == np.inf


def test_error_report_shape_mismatch():
    with pytest.raises(errors.ConfigurationError):
        error_report(_full(16), np.zeros((8, 8), bool))


@pytest.mark.parametrize("estimate", [_full(16), np.ones((16, 16), int)], ids=["mask", "int"])
def test_error_report_takes_only_a_bool_cell_array(estimate):
    with pytest.raises(errors.ConfigurationError):
        error_report(_full(16), estimate)


@settings(max_examples=20, deadline=None)
@given(a=masks_16, b=masks_16)
def test_sym_diff_symmetry(a, b):
    assert error_report(a, b.cells).sym_diff_measure == error_report(b, a.cells).sym_diff_measure


@settings(max_examples=20, deadline=None)
@given(a=masks_16, b=masks_16, c=masks_16)
def test_sym_diff_triangle(a, b, c):
    ab = error_report(a, b.cells).sym_diff_measure
    bc = error_report(b, c.cells).sym_diff_measure
    ac = error_report(a, c.cells).sym_diff_measure
    assert ac <= ab + bc + 1e-12


def test_containment_equivalence():
    n = 16
    rng = np.random.default_rng(23)
    truth = disc_mask(TFGrid(n), 5.0)
    est = truth.cells ^ random_cells(n, rng, fill=0.05)
    rep = error_report(truth, est)
    if rep.containment_radius in (0.0, np.inf, 0.5 / np.sqrt(n)):
        pytest.skip("degenerate draw")
    err = truth.cells ^ est
    nbhd_above = truth.boundary_distance < rep.containment_radius + 1e-9
    assert not (err & ~nbhd_above).any()
    nbhd_below = truth.boundary_distance < rep.containment_radius - 1e-9
    assert (err & ~nbhd_below).any()


def test_isoperimetric_ratio_of_disc():
    # edge-count perimeter of a digitized disc lies between the Euclidean
    # length and its staircase inflation by 4/pi
    for target in (25.0, 50.0, 100.0):
        m = disc_mask(TFGrid(256), target)
        ratio = perimeter(m) / (2 * np.sqrt(np.pi * target))
        assert 1.0 <= ratio <= 4 / np.pi + 0.02


# ---------------------------------------------------------------- serialization


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(24)
    m = Mask(random_cells(16, rng))
    path = tmp_path / "mask.pgm"
    path.write_bytes(mask_pgm(m.cells))
    back = read_mask_pgm(path)
    assert np.array_equal(back.cells, m.cells)
    assert back.grid.n == 16


def test_read_pgm_without_a_grid_names_a_non_square_image(tmp_path):
    path = tmp_path / "wide.pgm"
    path.write_bytes(b"P5\n16 8\n255\n" + bytes(128))
    with pytest.raises(errors.ConfigurationError, match="wide.pgm: image is 16x8"):
        read_mask_pgm(path)


def test_pgm_header_with_comments(tmp_path):
    path = tmp_path / "commented.pgm"
    payload = bytes([255, 0, 0, 0, 0, 255, 0, 0, 0, 0, 255, 0, 0, 0, 0, 200])
    path.write_bytes(b"P5 # hand-made\n4 # width\n# height next\n4\n255\n" + payload)
    m = read_mask_pgm(path)
    assert m.grid.n == 4
    assert np.array_equal(m.cells, np.eye(4, dtype=bool))


def test_pgm_layout_row_is_time():
    n = 16
    raw = mask_pgm(_single(n, at=(3, 9)).cells)  # time 3, frequency 9
    header = f"P5\n{n} {n}\n255\n".encode()
    assert raw.startswith(header)
    payload = raw[len(header) :]
    assert len(payload) == n * n
    assert [i for i, value in enumerate(payload) if value] == [3 * n + 9]
    assert payload[3 * n + 9] == 255


def test_field_pgm_quantization():
    values = np.linspace(0, 2.0, 256).reshape(16, 16)
    raw, max_used = maskgeom.field_pgm(values)
    assert max_used == pytest.approx(2.0)
    data = np.frombuffer(raw[raw.index(b"255\n") + 4 :], dtype=np.uint8, count=256)
    recon = data.reshape(16, 16) / 255.0 * max_used
    assert np.max(np.abs(recon - values)) <= max_used / 255.0


def test_field_pgm_of_a_zero_field_is_black():
    raw, max_used = maskgeom.field_pgm(np.zeros((16, 8)))
    assert max_used == 0.0
    assert raw == b"P5\n8 16\n255\n" + bytes(128)


def test_read_pgm_from_image_spec(tmp_path):
    m = disc_mask(TFGrid(16), 3.0)
    path = tmp_path / "disc.pgm"
    path.write_bytes(mask_pgm(m.cells))
    loaded = make_mask(TFGrid(16), f"image:{path}")
    assert np.array_equal(loaded.cells, m.cells)

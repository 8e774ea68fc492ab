"""Tests for the ASCII grid reader/writer and the RasterGrid container."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swflood import raster
from swflood.features import ClassifiedFeature, FeatureKind
from swflood.raster import (
    RasterGrid,
    RasterParseError,
    load_raster,
    read_ascii_grid,
    save_raster,
    write_ascii_grid,
)
from swflood.rasterize import rasterize_feature


def make_grid(values, xll=0.0, yll=0.0, cellsize=1.0, nodata=-9999.0):
    values = np.asarray(values, dtype=np.float64)
    nrows, ncols = values.shape
    return RasterGrid(ncols, nrows, xll, yll, cellsize, nodata, values)


SMALL = """\
ncols 3
nrows 2
xllcorner 10.0
yllcorner 20.0
cellsize 2.0
NODATA_value -9999
1 2 3
4 -9999 6
"""


# --------------------------------------------------------------------------
# Reading
# --------------------------------------------------------------------------


def test_read_small_grid():
    g = read_ascii_grid(SMALL)
    assert (g.ncols, g.nrows) == (3, 2)
    assert (g.xll, g.yll, g.cellsize) == (10.0, 20.0, 2.0)
    assert g.nodata == -9999.0
    np.testing.assert_array_equal(g.values, [[1, 2, 3], [4, -9999, 6]])
    np.testing.assert_array_equal(g.nodata_mask, [[0, 0, 0], [0, 1, 0]])


def test_read_center_registered_header_shifts_origin():
    # xllcenter 11, cellsize 2 -> corner at 11 - 1 = 10; same for y.
    text = SMALL.replace("xllcorner 10.0", "xllcenter 11.0")
    text = text.replace("yllcorner 20.0", "yllcenter 21.0")
    g = read_ascii_grid(text)
    assert g.xll == 10.0
    assert g.yll == 20.0


def test_read_header_keys_case_insensitive():
    text = SMALL.replace("ncols", "NCOLS").replace("NODATA_value", "nodata_VALUE")
    g = read_ascii_grid(text)
    assert g.ncols == 3


def test_read_blank_lines_between_rows_ignored():
    text = SMALL.replace("1 2 3\n", "1 2 3\n\n")
    g = read_ascii_grid(text)
    assert g.values[1, 2] == 6.0


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda t: t.replace("ncols 3", "ncols three"), "non-numeric header"),
        (lambda t: t.replace("ncols 3", "nrows 3"), "expected header key"),
        (lambda t: t.replace("ncols 3", "ncols 3 3"), "malformed header"),
        (lambda t: t.replace("ncols 3", "ncols 2.5"), "integers"),
        (lambda t: t.replace("cellsize 2.0", "cellsize 0"), "cellsize"),
        (lambda t: t.replace("1 2 3", "1 2"), "has 2 values"),
        (lambda t: t.replace("1 2 3", "1 2 x"), "non-numeric value"),
        (lambda t: t.replace("4 -9999 6\n", ""), "got 1 data rows"),
        (lambda t: t + "7 8 9\n", "too many data rows"),
        (lambda t: t.replace("1 2 3", "1 nan 3"), "nodata sentinel"),
        (lambda t: "ncols 3\n", "unexpected end of header"),
    ],
)
def test_read_rejects_malformed_input(mangle, fragment):
    with pytest.raises(RasterParseError, match=fragment):
        read_ascii_grid(mangle(SMALL))


def test_read_names_the_first_bad_token_of_the_last_row():
    text = SMALL.replace("4 -9999 6", "4 x1 y2")
    with pytest.raises(RasterParseError) as info:
        read_ascii_grid(text)
    assert str(info.value) == "non-numeric value 'x1' at row 1, col 1"


@pytest.mark.parametrize("key", ["ncols", "nrows"])
@pytest.mark.parametrize("bad", ["inf", "nan", "-3", "0", "2.5"])
def test_read_rejects_a_dimension_that_is_not_a_positive_integer(key, bad):
    text = SMALL.replace(f"{key} {3 if key == 'ncols' else 2}\n", f"{key} {bad}\n")
    assert text != SMALL
    with pytest.raises(RasterParseError, match=f"got {key} {bad}$"):
        read_ascii_grid(text)


@pytest.mark.parametrize("nrows", ["100000000", "10000000000000"])
def test_read_rejects_a_header_grid_too_large_to_hold(nrows):
    # 728 TiB exceeds any user address space; the second size overflows
    # numpy's array size limit.
    text = SMALL.replace("ncols 3\n", "ncols 1000000\n").replace("nrows 2\n", f"nrows {nrows}\n")
    with pytest.raises(RasterParseError, match=f"{nrows}x1000000"):
        read_ascii_grid(text)


# --------------------------------------------------------------------------
# Writing and round-trips
# --------------------------------------------------------------------------


def test_write_read_round_trip_exact_at_full_precision():
    rng = np.random.default_rng(42)
    values = rng.uniform(-100.0, 500.0, size=(7, 5))
    values[2, 3] = -9999.0  # a nodata hole
    g = make_grid(values, xll=-3.25, yll=17.5, cellsize=0.5)
    back = read_ascii_grid(write_ascii_grid(g, precision=17))
    np.testing.assert_array_equal(back.values, g.values)
    assert (back.xll, back.yll, back.cellsize) == (g.xll, g.yll, g.cellsize)


def test_write_nodata_verbatim_even_at_low_precision():
    # At precision 2 the sentinel -9999 would print as -1e+04 and stop
    # comparing equal; it must be written at full precision regardless.
    g = make_grid([[1.234567, -9999.0]])
    text = write_ascii_grid(g, precision=2)
    assert "-9999" in text.splitlines()[-1]
    back = read_ascii_grid(text)
    assert back.nodata_mask[0, 1]
    assert not back.nodata_mask[0, 0]


def test_write_respects_precision():
    g = make_grid([[1.23456789]])
    assert write_ascii_grid(g, precision=3).splitlines()[-1] == "1.23"


def test_save_load_files(tmp_path):
    g = make_grid(np.arange(6.0).reshape(2, 3), xll=1.0, yll=2.0)
    path = tmp_path / "g.asc"
    save_raster(path, g, precision=17)
    back = load_raster(path)
    np.testing.assert_array_equal(back.values, g.values)


# --------------------------------------------------------------------------
# RasterGrid container
# --------------------------------------------------------------------------


def test_grid_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError, match="positive"):
        RasterGrid(0, 2, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="cellsize"):
        RasterGrid(2, 2, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="does not match"):
        make_grid(np.zeros((2, 2))).values  # fine
        RasterGrid(3, 2, 0.0, 0.0, 1.0, -9999.0, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        make_grid([[np.inf]])


def test_grid_defaults_to_all_nodata():
    g = RasterGrid(3, 2, 0.0, 0.0, 1.0)
    assert g.nodata_mask.all()


def test_cell_of_maps_world_to_row_col():
    # 2x3 grid, cellsize 2, origin (10, 20): northern row is row 0.  Cells are
    # half-open, so a point on a shared edge belongs to the larger cell.
    g = make_grid(np.zeros((2, 3)), xll=10.0, yll=20.0, cellsize=2.0)

    def cells(x, y):
        point = ClassifiedFeature(1, FeatureKind.POINT, np.array([[x, y, 1.0]]))
        return [cell for cell, _ in rasterize_feature(point, g)]

    assert cells(10.5, 20.5) == [(1, 0)]  # south-west corner cell
    assert cells(15.9, 23.9) == [(0, 2)]  # north-east corner cell
    assert cells(12.0, 22.0) == [(0, 1)]  # on shared edges -> larger cell
    assert cells(9.9, 20.5) == []
    assert cells(10.5, 24.1) == []


def test_copy_is_independent():
    g = make_grid(np.zeros((2, 2)))
    c = g.copy()
    c.values[0, 0] = 7.0
    assert g.values[0, 0] == 0.0


def ref_write_ascii_grid(grid, precision=6):
    """The writer that formatted every value with its own format() call."""
    nodata_str = f"{grid.nodata:.17g}"
    out = [
        f"ncols {grid.ncols}",
        f"nrows {grid.nrows}",
        f"xllcorner {grid.xll:.17g}",
        f"yllcorner {grid.yll:.17g}",
        f"cellsize {grid.cellsize:.17g}",
        f"NODATA_value {nodata_str}",
    ]
    # Python floats format and compare faster than numpy scalars, same bytes.
    spec = f".{precision}g"
    nodata = grid.nodata
    for row in grid.values:
        out.append(" ".join(
            [nodata_str if v == nodata else format(v, spec) for v in row.tolist()]
        ))
    return "\n".join(out) + "\n"


SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                  1e300, -1e300, 1.7976931348623157e308, 0.1, -123456.789, 1e16, 9.5]


@st.composite
def grids(draw):
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    nodata = draw(st.sampled_from([-9999.0, 0.0, -0.0, 1e300, 3.5]))
    cell = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(SPECIAL_VALUES + [nodata]),
    )
    values = np.array(draw(st.lists(cell, min_size=nrows * ncols, max_size=nrows * ncols)),
                      dtype=np.float64).reshape(nrows, ncols)
    return RasterGrid(ncols, nrows, draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6)),
                      draw(st.floats(1e-3, 1e3)), nodata, values)


@settings(max_examples=400, deadline=None)
@given(grids(), st.integers(1, 17), st.sampled_from([1, 5, 12, 16384]))
@example(make_grid([[-0.0, 5e-324, -1e300, 1e300, -9999.0]]), 1, 16384)
@example(make_grid([[0.5], [-9999.0], [-0.0]]), 17, 2)
def test_block_formats_write_the_bytes_of_one_format_per_value(grid, precision, cells):
    # Small blocks put several of them, with and without nodata, in one grid.
    with patch.object(raster, "_FORMAT_CELLS", cells):
        assert write_ascii_grid(grid, precision) == ref_write_ascii_grid(grid, precision)

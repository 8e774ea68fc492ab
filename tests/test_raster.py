"""Tests for the ASCII grid reader/writer and the RasterGrid container."""

import io
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swflood import raster
from swflood.features import ClassifiedFeature, FeatureKind
from swflood.raster import (
    _HEADER_KEYS,
    RasterGrid,
    RasterParseError,
    load_raster,
    read_ascii_grid,
    save_raster,
    write_ascii_grid,
)
from swflood.rasterize import _contributions


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
        rows, cols, _ = _contributions([point], g)
        return list(zip(rows.tolist(), cols.tolist()))

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
    with patch.object(raster, "_BLOCK_CELLS", cells):
        assert write_ascii_grid(grid, precision) == ref_write_ascii_grid(grid, precision)


# --------------------------------------------------------------------------
# Bulk reading against the per-row reader
# --------------------------------------------------------------------------


def ref_read_ascii_grid(source):
    """The reader that converted each data row with one float() per token."""
    if isinstance(source, str):
        source = io.StringIO(source)

    header = {}
    for expect in _HEADER_KEYS:
        line = source.readline()
        if not line:
            raise RasterParseError(f"unexpected end of header, expected '{expect}' line")
        parts = line.split()
        if len(parts) != 2:
            raise RasterParseError(f"malformed header line {line.strip()!r}")
        key = parts[0].lower()
        accepted = {expect}
        if expect == "xllcorner":
            accepted.add("xllcenter")
        elif expect == "yllcorner":
            accepted.add("yllcenter")
        if key not in accepted:
            raise RasterParseError(f"expected header key '{expect}', got {parts[0]!r}")
        try:
            header[key] = float(parts[1])
        except ValueError:
            raise RasterParseError(f"non-numeric header value in line {line.strip()!r}") from None

    for key in ("ncols", "nrows"):
        value = header[key]
        # NaN fails the comparison; the finiteness test keeps int() off inf.
        if not (value >= 1 and np.isfinite(value) and value == int(value)):
            raise RasterParseError(
                f"ncols/nrows must be finite positive integers, got {key} {value:g}"
            )
    ncols = int(header["ncols"])
    nrows = int(header["nrows"])
    cellsize = header["cellsize"]
    if not cellsize > 0:
        raise RasterParseError(f"cellsize must be positive, got {cellsize}")

    # Center-registered origins shift by half a cell to the corner convention.
    if "xllcenter" in header:
        xll = header["xllcenter"] - cellsize / 2.0
    else:
        xll = header["xllcorner"]
    if "yllcenter" in header:
        yll = header["yllcenter"] - cellsize / 2.0
    else:
        yll = header["yllcorner"]
    nodata = header["nodata_value"]

    try:
        values = np.empty((nrows, ncols), dtype=np.float64)
    except (MemoryError, ValueError):
        raise RasterParseError(f"a {nrows}x{ncols} grid is too large to hold") from None
    row = 0
    for line in source:
        tokens = line.split()
        if not tokens:
            continue
        if row >= nrows:
            raise RasterParseError(f"too many data rows, expected {nrows}")
        if len(tokens) != ncols:
            raise RasterParseError(
                f"data row {row} has {len(tokens)} values, expected {ncols}"
            )
        try:
            values[row] = list(map(float, tokens))
        except ValueError:
            # Rescan the bad row only, to name the first offending token.
            for col, tok in enumerate(tokens):
                try:
                    float(tok)
                except ValueError:
                    raise RasterParseError(
                        f"non-numeric value {tok!r} at row {row}, col {col}"
                    ) from None
        row += 1
    if row != nrows:
        raise RasterParseError(f"got {row} data rows, expected {nrows}")

    try:
        return RasterGrid(ncols, nrows, xll, yll, cellsize, nodata, values)
    except ValueError as exc:
        raise RasterParseError(str(exc)) from None


# Spellings float() accepts, some of which numpy's text parser refuses.
ODD_TOKENS = [".5", "+.5", "5.", "-0", "-0.0", "+0", "0e0", "1E-5", "5e-324", "-5e-324",
              "1e-310", "1e300", "-1e300", "1e400", "1.7976931348623157e308", "inf",
              "-inf", "+inf", "Infinity", "-INF", "nan", "-nan", "NaN", "1_000", "١٢",
              "١.٥"]
# Spellings float() refuses.
BAD_TOKENS = ["x", "NaN(1)", "nan()", "#", "#1", "1,5", "0x10", "1e", "--1", "1d3", "\x00",
              "1.5j", ""]
SEPARATORS = [" ", "  ", "\t", " \t ", "\xa0", "\x0b", "\x1c", "\x85", "\u2028", "\u3000"]
BLANK_LINES = ["\n", "   \n", "\t\r\n", " \x0c \n"]


@st.composite
def numeric_tokens(draw, extra=()):
    choice = draw(st.integers(0, 9))
    if choice == 9:
        return draw(st.sampled_from(ODD_TOKENS + list(extra)))
    if choice == 8:
        return repr(draw(st.sampled_from(SPECIAL_VALUES)))
    tok = format(draw(st.floats(-1e306, 1e306)),
                 f".{draw(st.integers(1, 17))}g")
    if choice == 7 and not tok.startswith("-"):
        tok = "+" + tok
    return tok


def join_tokens(draw, tokens):
    """One line of text: tokens apart by drawn whitespace, with a drawn ending."""
    text = draw(st.sampled_from(["", " ", "\t"]))
    for i, tok in enumerate(tokens):
        if i:
            text += draw(st.sampled_from(SEPARATORS))
        text += tok
    return text + draw(st.sampled_from(["", " ", "\t"]))


@st.composite
def raster_texts(draw):
    """ASCII grid text, well formed or mangled in up to two places."""
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 6))
    nodata = draw(st.sampled_from(["-9999", "-9999.0", "0", "-0.0", "1e300", "inf"]))
    rows = [[draw(numeric_tokens(extra=[nodata])) for _ in range(ncols)] for _ in range(nrows)]
    carriage_returns = set()
    for mangle in draw(st.lists(
            st.sampled_from(["bad", "shift", "extra", "missing", "cr"]), max_size=2)):
        if not rows:
            break
        r = draw(st.integers(0, len(rows) - 1))
        if mangle == "bad" and rows[r]:
            rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(st.sampled_from(BAD_TOKENS))
        elif mangle == "shift" and len(rows) > 1:
            # A short row and a long row whose lengths sum to the right total.
            other = draw(st.integers(0, len(rows) - 1).filter(lambda i: i != r))
            if rows[r]:
                rows[other].append(rows[r].pop())
        elif mangle == "extra":
            rows.insert(r, [draw(numeric_tokens()) for _ in range(ncols)])
        elif mangle == "missing":
            del rows[r]
        elif mangle == "cr":
            carriage_returns.add(r)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = (f"ncols {ncols}{ending}nrows {nrows}{ending}xllcorner 0.5{ending}"
            f"yllcorner -2{ending}cellsize 1.5{ending}NODATA_value {nodata}{ending}")
    for r, tokens in enumerate(rows):
        while draw(st.integers(0, 4)) == 4:
            text += draw(st.sampled_from(BLANK_LINES))
        line = join_tokens(draw, tokens)
        if r in carriage_returns:
            line = line.replace(" ", "\r", 1)
        text += line + ending
    while draw(st.integers(0, 4)) == 4:
        text += draw(st.sampled_from(BLANK_LINES))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def read_outcome(read, text, as_stream):
    """The grid's header and value bytes, or the exception's type and message.

    A warning counts as an exception.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = read(io.StringIO(text) if as_stream else text)
    except Exception as exc:
        return type(exc), str(exc)
    return (g.ncols, g.nrows, g.xll, g.yll, g.cellsize, np.float64(g.nodata).tobytes(),
            g.values.dtype, g.values.shape, g.values.tobytes())


SMALL_ROWS = "ncols 2\nnrows 3\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -9999\n"


@settings(max_examples=600, deadline=None)
@given(raster_texts(), st.sampled_from([1, 5, 12, 30, 16384]), st.booleans())
@example(SMALL_ROWS + "1 2\n3 4\n5 6\n", 4, False)
@example(SMALL_ROWS + "1 2\n3 4 5\n6\n", 16384, True)
@example(SMALL_ROWS + "1 2\n3 x\n5 y\n7 8\n", 16384, False)
@example(SMALL_ROWS + "1 2\n3 4\n5 6\n7 8\n", 2, False)
@example(SMALL_ROWS + "1_000 2\n\n3 4\r5 6\n", 16384, True)
@example(SMALL_ROWS + "\n \n\t\n1 2\n3 4\n5 6", 1, True)
def test_bulk_read_matches_the_per_row_reader(text, cells, as_stream):
    # Small blocks put rows, blank lines and errors on every side of a block edge.
    with patch.object(raster, "_BLOCK_CELLS", cells):
        got = read_outcome(read_ascii_grid, text, as_stream)
    assert got == read_outcome(ref_read_ascii_grid, text, as_stream)


@pytest.mark.parametrize("token, value", [("1_000", 1000.0), ("١٢", 12.0), ("+.5", 0.5)])
def test_read_keeps_every_spelling_float_accepts(token, value):
    g = read_ascii_grid(SMALL.replace("1 2 3", f"1 {token} 3"))
    assert g.values[0, 1] == value


@pytest.mark.parametrize("token", ["NaN(1)", "#", "0x10", "1e"])
def test_read_names_a_token_float_refuses(token):
    with pytest.raises(RasterParseError) as info:
        read_ascii_grid(SMALL.replace("4 -9999 6", f"4 -9999 {token}"))
    assert str(info.value) == f"non-numeric value {token!r} at row 1, col 2"

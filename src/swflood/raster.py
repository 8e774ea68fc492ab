"""Reading and writing of single-band rasters in the plain-text ASCII grid format.

The format is a six-line header (ncols, nrows, xllcorner, yllcorner, cellsize,
NODATA_value) followed by ``nrows`` lines of ``ncols`` whitespace-separated
values, row 0 being the northernmost row.  Header keys are case-insensitive
and must appear in the order above; ``xllcenter``/``yllcenter`` are accepted
and converted to the corner convention.

Data values are the tokens Python's ``float()`` accepts.  The reader converts
blocks of rows with numpy's text parser; a block that parser refuses is read
again row by row with ``float()``, which gives the same values or names the
first malformed token.

The package reads every input file through :func:`read_input` (UTF-8, the
path in front of any parse error) and writes through :func:`atomic_open`.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_NODATA = -9999.0

# Values per block of rows: per %-format call of write_ascii_grid and per
# bulk conversion of read_ascii_grid.  One string per row left the heap of a
# 1000x1000 write about 4.6 MB larger at its peak than one string per value
# did; blocks of this size keep the per-value peak at the per-row speed.
_BLOCK_CELLS = 16384

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


class RasterParseError(ValueError):
    """Malformed ASCII grid input."""


@dataclass(eq=False)
class RasterGrid:
    """A georeferenced cell grid with a nodata sentinel.

    ``values`` is a row-major (nrows, ncols) float array; row 0 is the
    northernmost row.  Every value is either finite or exactly equal to
    ``nodata``.
    """

    ncols: int
    nrows: int
    xll: float
    yll: float
    cellsize: float
    nodata: float = DEFAULT_NODATA
    values: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.ncols < 1 or self.nrows < 1:
            raise ValueError(f"grid dimensions must be positive, got {self.nrows}x{self.ncols}")
        if not self.cellsize > 0:
            raise ValueError(f"cellsize must be positive, got {self.cellsize}")
        if self.values is None:
            self.values = np.full((self.nrows, self.ncols), self.nodata, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.nrows, self.ncols):
            raise ValueError(
                f"values shape {self.values.shape} does not match {self.nrows}x{self.ncols}"
            )
        bad = ~np.isfinite(self.values) & (self.values != self.nodata)
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise ValueError(f"non-finite value at row {r}, col {c} is not the nodata sentinel")

    @property
    def nodata_mask(self) -> np.ndarray:
        return self.values == self.nodata

    def copy(self) -> "RasterGrid":
        return RasterGrid(
            self.ncols, self.nrows, self.xll, self.yll, self.cellsize,
            self.nodata, self.values.copy(),
        )


def read_ascii_grid(source) -> RasterGrid:
    """Parse an ASCII grid from a string or an open text stream."""
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
    step = max(1, _BLOCK_CELLS // ncols)
    while lines := list(itertools.islice(source, step)):
        row = _read_rows(lines, values, row)
    if row != nrows:
        raise RasterParseError(f"got {row} data rows, expected {nrows}")

    try:
        return RasterGrid(ncols, nrows, xll, yll, cellsize, nodata, values)
    except ValueError as exc:
        raise RasterParseError(str(exc)) from None


def bulk_floats(strings: list[str], rows: int, cols: int) -> np.ndarray | None:
    """The numbers of ``strings`` as one finite (rows, cols) array, or None.

    numpy's parser splits on the whitespace ``str.split`` splits on and
    converts what ``float()`` converts, but refuses some spellings ``float()``
    accepts (``1_000``, non-ASCII digits) and a line break inside a string,
    so the callers convert what this refuses again with ``float()``.  It
    skips blank strings, which the shape check then counts as missing.
    """
    # Blank strings only would make loadtxt warn of no data.
    if not any(map(str.strip, strings)):
        return None
    try:
        block = np.loadtxt(strings, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    return block if block.shape == (rows, cols) and np.isfinite(block).all() else None


def _read_rows(lines: list[str], values: np.ndarray, row: int) -> int:
    """Convert a block of data lines into ``values[row:]``; returns the next row."""
    nrows, ncols = values.shape
    count = sum(1 for line in lines if not line.isspace())
    if row + count <= nrows and (block := bulk_floats(lines, count, ncols)) is not None:
        values[row : row + count] = block
        return row + count

    for line in lines:
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
    return row


def write_ascii_grid(grid: RasterGrid, precision: int = 6) -> str:
    """Serialize a grid; round-trips through read_ascii_grid at the printed precision.

    ``precision`` applies to data values (17 reproduces float64 exactly).
    Georeference fields and the nodata sentinel are always written at full
    precision, and nodata cells are printed verbatim as the sentinel so they
    compare equal on re-read.
    """
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
    # Values without nodata are formatted by one %-format string per block
    # of rows; "%.Ng" % v gives the bytes of format(v, ".Ng").
    spec = f".{precision}g"
    row_format = " ".join([f"%{spec}"] * grid.ncols)
    nodata = grid.nodata
    step = max(1, _BLOCK_CELLS // grid.ncols)
    for r0 in range(0, grid.nrows, step):
        block = grid.values[r0 : r0 + step]
        if not (block == nodata).any():
            out.append("\n".join([row_format] * len(block)) % tuple(block.ravel().tolist()))
            continue
        for row in block.tolist():
            if nodata in row:
                out.append(" ".join([nodata_str if v == nodata else format(v, spec) for v in row]))
            else:
                out.append(row_format % tuple(row))
    return "\n".join(out) + "\n"


def load_raster(path) -> RasterGrid:
    return read_input(path, read_ascii_grid)


def read_input(path, parse):
    """``parse`` applied to the text stream of the UTF-8 file ``path``.

    A ValueError of the parser is raised again as its own type with
    ``"<path>: "`` in front of its message; bytes that are not UTF-8 raise
    ValueError naming their line.  OSError passes through unchanged.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh)
    except UnicodeDecodeError:
        # The stream decodes in chunks, so the error's position counts from
        # its chunk; decode the whole file once more to find the line.
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # bytes.splitlines breaks lines where the text stream does.
            lineno = len((data[: exc.start] + b".").splitlines())
            raise ValueError(f"{path}: line {lineno} is not UTF-8 text") from None
        raise
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def data_lines(source):
    """``(line number, text)`` of each line of a str or text stream that
    holds data once its ``#`` comment and outer whitespace are cut."""
    if isinstance(source, str):
        source = io.StringIO(source)
    for lineno, raw in enumerate(source, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            yield lineno, text


@contextlib.contextmanager
def atomic_open(path, binary: bool = False):
    """Write ``path`` through a temporary file in the same directory.

    The file object writes to a fresh sibling; a clean exit renames it over
    ``path`` with os.replace, and an exception deletes it, so ``path`` holds
    either its old content or the complete new one, never a partial file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, "xb" if binary else "x", encoding=None if binary else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_raster(path, grid: RasterGrid, precision: int = 6) -> None:
    with atomic_open(path) as fh:
        fh.write(write_ascii_grid(grid, precision))

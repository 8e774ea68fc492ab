"""Rasterization of classified features onto a grid and DSM extrusion.

The selected features are rasterized in batches of _BATCH_FEATURES
consecutive features, each batch a slice of the feature table and
rasterized in whole-array numpy passes:

- Every segment of every LINE and POLYGON is split where it crosses a
  gridline, and each sub-interval lies in the one cell found from its
  midpoint, with z interpolated there: a supercover walk (every cell the
  segment touches, no diagonal gaps).  The crossings of all segments come
  from one ragged expansion over the gridline range each segment spans, and
  one sort by (segment, t) that drops equal neighbours.  Where consecutive
  intervals of a segment meet only at a corner, both cells sharing the
  corner are added with z at the crossing.  A zero-length segment gives its
  own cell and z, and a POINT is the zero-length segment from its vertex to
  itself.
- A polygon also fills the cells whose centres lie inside it by the even-odd
  rule on cell-centre scanlines, at its maximum vertex z.  Each edge is tested
  only on the rows its own y range spans, so the work scales with the
  crossings, not with bounding box times edges.

A batch's contributions are an unordered set of (cell, z) stamps.  Extrusion
raises the terrain by the cellwise maximum of all stamped heights, one batch
after another, so a build holds the DSM and one batch's contributions
whatever the number of features, and the DSM does not depend on the order of
the features or the batch size.

The contributions are, as a multiset, bitwise those of walking one feature,
segment and cell at a time in Python.  Each float expression keeps that
walk's form: ``(origin + k*cs - p0)/(p1 - p0)``, ``0.5*(ta + tb)``,
``x0 + tm*(x1 - x0)``, ``floor((x - xll)/cs)``,
``px + (yc - py)/(qy - py)*(qx - px)`` and ``ceil((xa - xll)/cs - 0.5)``.
numpy's float64 ``+ - * / floor ceil`` are the IEEE operations Python floats
use, so every cell index and z has the same bits.  Divisions run only on the
lanes that are kept, so no discarded lane can warn.
"""

from __future__ import annotations

import logging

import numpy as np

from .features import FeatureKind, FeatureTable, close_lines, select_classes
from .raster import RasterGrid

logger = logging.getLogger(__name__)

# Features rasterized and raised together by build_dsm.  A contribution's
# temporaries take about 90 B, so a batch of building-sized features holds a
# few MB next to the 8 B/cell of the DSM.  Larger batches were no faster, and
# batches of 256 or fewer began to pay for their fixed count of numpy calls.
_BATCH_FEATURES = 512


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, rank) of each item when owner i holds counts[i] items."""
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - first[owner]


def _cells(grid: RasterGrid, x: np.ndarray, y: np.ndarray):
    """(inside, row, col) of the cells holding the points (x, y).

    row and col are floats, meaningful where ``inside``.
    """
    col = np.floor((x - grid.xll) / grid.cellsize)
    row_s = np.floor((y - grid.yll) / grid.cellsize)  # counted from the south
    inside = (col >= 0) & (col < grid.ncols) & (row_s >= 0) & (row_s < grid.nrows)
    return inside, grid.nrows - 1 - row_s, col


def _crossings(p0, p1, origin: float, cellsize: float, ncells: int):
    """(segment, t) of every t in (0, 1) where p0 + t*(p1 - p0) crosses a gridline.

    Only the grid's own lines origin + k*cellsize, k in [0, ncells], matter:
    crossings beyond the grid cannot separate cells that are kept.
    """
    seg = np.flatnonzero(p0 != p1)
    a, b = p0[seg], p1[seg]
    k0 = np.maximum(np.ceil((np.minimum(a, b) - origin) / cellsize), 0)
    k1 = np.minimum(np.floor((np.maximum(a, b) - origin) / cellsize), ncells)
    owner, rank = _ragged(np.maximum(k1 - k0 + 1, 0).astype(np.intp))
    seg = seg[owner]
    k = k0[owner] + rank
    t = (origin + k * cellsize - p0[seg]) / (p1[seg] - p0[seg])
    keep = (t > 0.0) & (t < 1.0)
    return seg[keep], t[keep]


def _supercover(grid: RasterGrid, x0, y0, z0, x1, y1, z1):
    """(row, col, z) of the supercover cells of segments (x0, y0) -> (x1, y1)."""
    n = len(x0)
    sx, tx = _crossings(x0, x1, grid.xll, grid.cellsize, grid.ncols)
    sy, ty = _crossings(y0, y1, grid.yll, grid.cellsize, grid.nrows)
    ends = np.arange(n)
    seg = np.concatenate([ends, ends, sx, sy])
    t = np.concatenate([np.zeros(n), np.ones(n), tx, ty])
    # By t, then stably by segment.  Equal t are equal values, so the first
    # sort need not be stable.
    order = np.argsort(t)
    order = order[np.argsort(seg[order], kind="stable")]
    seg, t = seg[order], t[order]
    fresh = np.ones(len(t), dtype=bool)
    fresh[1:] = (seg[1:] != seg[:-1]) | (t[1:] != t[:-1])
    seg, t = seg[fresh], t[fresh]

    # Interval i runs from t[i] to t[i + 1] of segment s[i].
    i = np.flatnonzero(seg[1:] == seg[:-1])
    s, ta = seg[i], t[i]
    tm = 0.5 * (ta + t[i + 1])
    ax, ay, az = x0[s], y0[s], z0[s]
    dx, dy, dz = x1[s] - ax, y1[s] - ay, z1[s] - az
    inside, row, col = _cells(grid, ax + tm * dx, ay + tm * dy)
    # A zero-length segment is one interval whose midpoint is its start
    # (ax + 0.5*0.0 lands in ax's cell); it keeps its start z.
    z = np.where((dx == 0) & (dy == 0), az, az + tm * dz)

    # Consecutive in-grid intervals of a segment whose cells meet only at a
    # corner: both cells sharing the corner join, with z at the crossing.
    corner = np.zeros(len(s), dtype=bool)
    corner[1:] = ((s[1:] == s[:-1]) & inside[1:] & inside[:-1]
                  & (row[1:] != row[:-1]) & (col[1:] != col[:-1]))
    b = np.flatnonzero(corner)
    zc = az[b] + ta[b] * dz[b]
    return (
        np.concatenate([row[inside], row[b - 1], row[b]]),
        np.concatenate([col[inside], col[b], col[b - 1]]),
        np.concatenate([z[inside], zc, zc]),
    )


def _fill(grid: RasterGrid, ring, px, py, qx, qy):
    """(ring, row, col) of the cells whose centres lie inside rings by the even-odd rule.

    Edge e runs from (px, py) to (qx, qy) of ring[e].
    """
    # Half-open in y, so a vertex on a scanline counts once and a horizontal
    # edge never.  Each edge spans its rows with one row of slack each way.
    e = np.flatnonzero(py != qy)
    a, b = py[e], qy[e]
    row_lo = np.maximum(
        grid.nrows - 2 - np.floor((np.maximum(a, b) - grid.yll) / grid.cellsize), 0)
    row_hi = np.minimum(
        grid.nrows - np.floor((np.minimum(a, b) - grid.yll) / grid.cellsize), grid.nrows - 1)
    owner, rank = _ragged(np.maximum(row_hi - row_lo + 1, 0).astype(np.intp))
    e = e[owner]
    row = (row_lo[owner] + rank).astype(np.intp)
    yc = grid.yll + (grid.nrows - 1 - row + 0.5) * grid.cellsize
    a, b = py[e], qy[e]
    hit = ((a <= yc) & (yc < b)) | ((b <= yc) & (yc < a))
    e, row, yc = e[hit], row[hit], yc[hit]
    x = px[e] + (yc - py[e]) / (qy[e] - py[e]) * (qx[e] - px[e])

    # The sorted crossings of one ring on one row pair up (0, 1), (2, 3), ...;
    # an odd last one is dropped.
    r = ring[e]
    order = np.lexsort((x, row, r))
    r, row, x = r[order], row[order], x[order]
    start = np.ones(len(x), dtype=bool)
    start[1:] = (r[1:] != r[:-1]) | (row[1:] != row[:-1])
    rank = np.arange(len(x)) - np.flatnonzero(start)[np.cumsum(start) - 1]
    pair = np.flatnonzero((rank[:-1] % 2 == 0) & ~start[1:])
    # Centres in [xa, xb): col centre = xll + (col + 0.5) * cellsize.
    c0 = np.maximum(np.ceil((x[pair] - grid.xll) / grid.cellsize - 0.5), 0)
    c1 = np.minimum(np.ceil((x[pair + 1] - grid.xll) / grid.cellsize - 0.5) - 1, grid.ncols - 1)
    owner, rank = _ragged(np.maximum(c1 - c0 + 1, 0).astype(np.intp))
    pair = pair[owner]
    return r[pair], row[pair], c0[owner] + rank


def _contributions(features: FeatureTable, grid: RasterGrid):
    """(rows, cols, z) of the cell contributions of all features on the grid.

    Cells outside the grid are dropped.
    """
    offsets, verts = features.offsets, features.vertices
    # A segment starts at every vertex but the last of its feature; a POINT's
    # one vertex is a zero-length segment to itself.
    count = np.diff(offsets)
    owner, rank = _ragged(np.maximum(count - 1, 1))
    a = offsets[owner] + rank
    v0, v1 = verts[a], verts[a + (count[owner] > 1)]
    srow, scol, sz = _supercover(grid, v0[:, 0], v0[:, 1], v0[:, 2],
                                 v1[:, 0], v1[:, 1], v1[:, 2])

    # Every feature has a vertex, so each reduceat range is its own vertices.
    z_fill = np.maximum.reduceat(verts[:, 2], offsets[:-1]) if len(count) else np.zeros(0)
    edge = np.flatnonzero(features.kinds[owner] == FeatureKind.POLYGON)
    ring, frow, fcol = _fill(grid, owner[edge], v0[edge, 0], v0[edge, 1],
                             v1[edge, 0], v1[edge, 1])

    rows = np.concatenate([srow, frow]).astype(np.intp)
    cols = np.concatenate([scol, fcol]).astype(np.intp)
    return rows, cols, np.concatenate([sz, z_fill[ring]])


def _raise(values: np.ndarray, terrain: np.ndarray, nodata: float, rows, cols, z) -> int:
    """Raise values[rows, cols] to z in place where z is higher; return the skips.

    Each cell becomes the maximum of its value and the contributions above it,
    a zero stamped as +0.0, so the result is independent of the contributions'
    order and never lower than before.  A contribution equal to the value
    leaves its bits.  Contributions on cells where the terrain holds nodata
    are skipped and counted.

    Calls on consecutive batches of contributions give the bits of one call on
    all of them.  Nodata is tested on the terrain, which no call changes, so a
    cell an earlier batch raised to exactly the nodata value still counts as
    data.
    """
    on_data = terrain[rows, cols] != nodata
    up = on_data & (z > values[rows, cols])
    # -0.0 + 0.0 is +0.0, so np.maximum never meets a tie of signed zeros.
    np.maximum.at(values, (rows[up], cols[up]), z[up] + 0.0)
    return len(on_data) - int(np.count_nonzero(on_data))


def build_dsm(
    dtm: RasterGrid,
    features: FeatureTable,
    class_ids: set[int],
    close_tolerance: float = 0.1,
) -> RasterGrid:
    """Select classes, close nearly-closed lines, rasterize and extrude.

    The selected features are rasterized and raised a batch of
    _BATCH_FEATURES at a time onto one copy of the DTM: peak memory is the
    DSM plus one batch, whatever the number of features.  One warning names
    the selected class ids that no feature has.
    """
    if not class_ids:
        raise ValueError("class selection is empty")
    selected = close_lines(select_classes(features, class_ids), close_tolerance)
    unmatched = set(class_ids).difference(np.unique(selected.class_ids).tolist())
    if unmatched:
        logger.warning("no feature has the selected class id(s) %s",
                       ", ".join(map(str, sorted(unmatched))))
    dsm = dtm.copy()
    contributed = skipped = 0
    for start in range(0, len(selected), _BATCH_FEATURES):
        rows, cols, z = _contributions(selected[start : start + _BATCH_FEATURES], dtm)
        contributed += len(z)
        skipped += _raise(dsm.values, dtm.values, dtm.nodata, rows, cols, z)
    logger.info(
        "rasterized %d feature(s) into %d cell contribution(s)", len(selected), contributed
    )
    if skipped:
        logger.warning("skipped %d feature cell(s) on nodata terrain", skipped)
    return dsm

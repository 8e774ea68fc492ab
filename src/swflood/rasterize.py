"""Rasterization of classified features onto a grid and DSM extrusion.

All selected features are rasterized together, in whole-array numpy passes:

- A point contributes the cell that holds it.
- Every segment of every LINE and POLYGON is split where it crosses a
  gridline, and each sub-interval lies in the one cell found from its
  midpoint, with z interpolated there: a supercover walk (every cell the
  segment touches, no diagonal gaps).  The crossings of all segments come
  from one ragged expansion over the gridline range each segment spans, and
  one sort by (segment, t) that drops equal neighbours.  Where consecutive
  intervals of a segment meet only at a corner, both cells sharing the
  corner are added with z at the crossing.  A zero-length segment gives its
  own cell and z.
- A polygon also fills the cells whose centres lie inside it by the even-odd
  rule on cell-centre scanlines, at its maximum vertex z.  Each edge is tested
  only on the rows its own y range spans, so the work scales with the
  crossings, not with bounding box times edges.

Extrusion raises the terrain by the cellwise maximum of all contributed
feature heights.

The result is bitwise that of walking one feature, segment and cell at a time
in Python.  Each float expression keeps that walk's form and order:
``(origin + k*cs - p0)/(p1 - p0)``, ``0.5*(ta + tb)``, ``x0 + tm*(x1 - x0)``,
``floor((x - xll)/cs)``, ``px + (yc - py)/(qy - py)*(qx - px)`` and
``ceil((xa - xll)/cs - 0.5)``.  numpy's float64 ``+ - * / floor ceil`` are the
IEEE operations Python floats use, so every cell index and z has the same
bits, and the contributions come out in the walk's order.  Divisions run only
on the lanes that are kept, so no discarded lane can warn.
"""

from __future__ import annotations

import logging

import numpy as np

from .features import ClassifiedFeature, FeatureKind, close_lines, select_classes
from .raster import RasterGrid

logger = logging.getLogger(__name__)


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
    """(segment, row, col, z) of the supercover cells of segments (x0, y0) -> (x1, y1).

    Items come by segment, then along it, each corner bridge before the cell
    it leads to.
    """
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
    c = np.flatnonzero(inside)
    b = np.flatnonzero(corner)
    zc = az[b] + ta[b] * dz[b]
    # Interval i emits its two bridges (slots 3i, 3i+1), then its cell (3i+2).
    order = np.argsort(np.concatenate([3 * c + 2, 3 * b, 3 * b + 1]), kind="stable")
    return (
        np.concatenate([s[c], s[b], s[b]])[order],
        np.concatenate([row[c], row[b - 1], row[b]])[order],
        np.concatenate([col[c], col[b], col[b - 1]])[order],
        np.concatenate([z[c], zc, zc])[order],
    )


def _fill(grid: RasterGrid, ring, px, py, qx, qy):
    """(ring, row, col) of the cells whose centres lie inside rings by the even-odd rule.

    Edge e runs from (px, py) to (qx, qy) of ring[e].  Items come by ring,
    then by row from the north, then west to east.
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


def _contributions(features: list[ClassifiedFeature], grid: RasterGrid):
    """(rows, cols, z) of the cell contributions of all features on the grid.

    Cells outside the grid are dropped.  Contributions come feature by
    feature; within a feature, its segments' supercover cells come first,
    then its polygon fill.
    """
    kinds = [f.kind for f in features]
    points = np.array([i for i, k in enumerate(kinds) if k is FeatureKind.POINT], dtype=np.intp)
    paths = [i for i, k in enumerate(kinds) if k is not FeatureKind.POINT]

    pxyz = np.array([features[i].vertices[0] for i in points]).reshape(-1, 3)
    inside, prow, pcol = _cells(grid, pxyz[:, 0], pxyz[:, 1])

    verts = np.concatenate([np.empty((0, 3))] + [features[i].vertices for i in paths])
    sizes = np.array([len(features[i].vertices) for i in paths], dtype=np.intp)
    last = np.zeros(len(verts), dtype=bool)
    last[np.cumsum(sizes) - 1] = True
    a = np.flatnonzero(~last)  # segment j runs from vertex a[j] to a[j] + 1
    owner = np.repeat(np.array(paths, dtype=np.intp), sizes - 1)
    v0, v1 = verts[a], verts[a + 1]
    s, srow, scol, sz = _supercover(grid, v0[:, 0], v0[:, 1], v0[:, 2],
                                    v1[:, 0], v1[:, 1], v1[:, 2])

    z_fill = np.zeros(len(features))
    polygons = [i for i in paths if kinds[i] is FeatureKind.POLYGON]
    z_fill[polygons] = [features[i].vertices[:, 2].max() for i in polygons]
    edge = np.flatnonzero(np.isin(owner, polygons))
    ring, frow, fcol = _fill(grid, owner[edge], v0[edge, 0], v0[edge, 1],
                             v1[edge, 0], v1[edge, 1])

    feature = np.concatenate([points[inside], owner[s], ring])
    order = np.argsort(feature, kind="stable")
    rows = np.concatenate([prow[inside], srow, frow])[order].astype(np.intp)
    cols = np.concatenate([pcol[inside], scol, fcol])[order].astype(np.intp)
    z = np.concatenate([pxyz[inside, 2], sz, z_fill[ring]])[order]
    return rows, cols, z


def _raise(values: np.ndarray, nodata: float, rows, cols, z) -> None:
    """Raise values[rows, cols] to z in place where z is higher.

    The result is that of ``if z > value: value = z`` over the contributions
    in order: never lower than before and, up to the sign of a zero,
    independent of their order.  Contributions on nodata cells are skipped
    with a warning.
    """
    base = values[rows, cols]
    on_data = base != nodata
    skipped = len(z) - int(np.count_nonzero(on_data))
    if skipped:
        logger.warning("skipped %d feature cell(s) on nodata terrain", skipped)
    up = on_data & (z > base)
    rows, cols, z = rows[up], cols[up], z[up]
    np.maximum.at(values, (rows, cols), z)
    # np.maximum may keep either of a tied +0.0 and -0.0; the first one wins.
    zero = np.flatnonzero(z == 0.0)
    if len(zero):
        cell = np.ravel_multi_index((rows[zero], cols[zero]), values.shape, mode="wrap")
        first = zero[np.unique(cell, return_index=True)[1]]
        first = first[values[rows[first], cols[first]] == 0.0]
        values[rows[first], cols[first]] = z[first]


def build_dsm(
    dtm: RasterGrid,
    features: list[ClassifiedFeature],
    class_ids: set[int],
    close_tolerance: float = 0.1,
) -> RasterGrid:
    """Select classes, close nearly-closed lines, rasterize and extrude."""
    if not class_ids:
        raise ValueError("class selection is empty")
    selected = close_lines(select_classes(features, class_ids), close_tolerance)
    rows, cols, z = _contributions(selected, dtm)
    logger.info(
        "rasterized %d feature(s) into %d cell contribution(s)", len(selected), len(z)
    )
    dsm = dtm.copy()
    _raise(dsm.values, dsm.nodata, rows, cols, z)
    return dsm

"""Tests for feature rasterization (supercover lines, polygon fill, extrusion).

Cell expectations are hand-traced on small grids: with origin (0, 0) and
cellsize 1 on an n-row grid, the point (x, y) falls in row n-1-floor(y),
col floor(x).
"""

import hashlib
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from swflood.features import ClassifiedFeature, FeatureKind, close_lines, select_classes
from swflood.raster import RasterGrid
from swflood.rasterize import _contributions, _raise, build_dsm

# The array core divides only on the lanes it keeps: no masked-out lane may
# warn of a division by zero or an invalid value.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

GRID5 = RasterGrid(5, 5, 0.0, 0.0, 1.0, -9999.0, np.zeros((5, 5)))


def feat(kind, *xyz, class_id=1):
    return ClassifiedFeature(class_id, kind, np.array(xyz, dtype=float))


def contributions(feature, grid):
    """[((row, col), z)] of one feature, in the order _contributions gives them."""
    rows, cols, z = _contributions([feature], grid)
    return [((r, c), v) for r, c, v in zip(rows.tolist(), cols.tolist(), z.tolist())]


def raised(dtm, cells):
    """The DTM values raised through _raise by [((row, col), z)] contributions."""
    values = dtm.values.copy()
    rows, cols = np.array([cell for cell, _ in cells], dtype=np.intp).reshape(-1, 2).T
    _raise(values, dtm.nodata, rows, cols, np.array([z for _, z in cells], dtype=np.float64))
    return values


def cells_of(contribs):
    return {cell for cell, _ in contribs}


# --------------------------------------------------------------------------
# Supercover line walk
# --------------------------------------------------------------------------


def test_point_lands_in_its_cell():
    out = contributions(feat(FeatureKind.POINT, (2.5, 1.5, 7.0)), GRID5)
    assert out == [((3, 2), 7.0)]


def test_point_outside_grid_is_dropped():
    assert contributions(feat(FeatureKind.POINT, (-1.0, 2.0, 7.0)), GRID5) == []


def test_horizontal_line_covers_four_cells():
    # (0.5,0.5)->(3.5,0.5): bottom row (row 4), cols 0..3, constant z.
    out = contributions(feat(FeatureKind.LINE, (0.5, 0.5, 2.0), (3.5, 0.5, 2.0)), GRID5)
    assert cells_of(out) == {(4, 0), (4, 1), (4, 2), (4, 3)}
    assert all(z == 2.0 for _, z in out)


def test_diagonal_line_walks_without_gaps():
    # (0.5,0.5)->(2.5,1.5) crosses x=1 (t=.25), x=2 (t=.75), y=1 (t=.5);
    # sub-interval midpoints give the 4-connected chain below with z = 4t.
    out = contributions(feat(FeatureKind.LINE, (0.5, 0.5, 0.0), (2.5, 1.5, 4.0)), GRID5)
    assert out == [
        ((4, 0), 0.5),
        ((4, 1), 1.5),
        ((3, 1), 2.5),
        ((3, 2), 3.5),
    ]


def test_exact_corner_crossing_bridges_both_cells():
    # (0.5,0.5)->(1.5,1.5) passes exactly through (1,1); both corner
    # neighbours are added so the cover stays 4-connected.
    out = contributions(feat(FeatureKind.LINE, (0.5, 0.5, 0.0), (1.5, 1.5, 4.0)), GRID5)
    assert cells_of(out) == {(4, 0), (4, 1), (3, 0), (3, 1)}
    bridge_z = [z for cell, z in out if cell in {(4, 1), (3, 0)}]
    assert bridge_z == [2.0, 2.0]  # z at the crossing itself (t = 0.5)


def test_line_clipped_to_grid():
    # Only the in-grid portion contributes.
    out = contributions(feat(FeatureKind.LINE, (-2.0, 0.5, 0.0), (1.5, 0.5, 0.0)), GRID5)
    assert cells_of(out) == {(4, 0), (4, 1)}


def test_supercover_is_four_connected_on_random_segments():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x0, y0, x1, y1 = rng.uniform(0.05, 4.95, size=4)
        out = contributions(feat(FeatureKind.LINE, (x0, y0, 0.0), (x1, y1, 1.0)), GRID5)
        cover = cells_of(out)
        assert ref_cell_at(GRID5, x0, y0) in cover
        assert ref_cell_at(GRID5, x1, y1) in cover
        # Breadth-first flood over 4-neighbours must reach every cell.
        seen = {next(iter(cover))}
        frontier = list(seen)
        while frontier:
            r, c = frontier.pop()
            for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                if nb in cover and nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        assert seen == cover


# --------------------------------------------------------------------------
# Polygon fill
# --------------------------------------------------------------------------


def test_square_polygon_fills_two_by_two_block():
    ring = feat(
        FeatureKind.POLYGON,
        (0.25, 0.25, 3.0), (1.75, 0.25, 3.0), (1.75, 1.75, 3.0),
        (0.25, 1.75, 3.0), (0.25, 0.25, 3.0),
    )
    out = contributions(ring, GRID5)
    assert cells_of(out) == {(4, 0), (4, 1), (3, 0), (3, 1)}


def test_polygon_interior_takes_max_vertex_z():
    # Sloped ring: fill cells carry the max vertex z, outline interpolates.
    ring = feat(
        FeatureKind.POLYGON,
        (0.25, 0.25, 1.0), (2.75, 0.25, 9.0), (2.75, 2.75, 9.0),
        (0.25, 2.75, 1.0), (0.25, 0.25, 1.0),
    )
    out = contributions(ring, GRID5)
    center_z = [z for cell, z in out if cell == (3, 1)]
    assert 9.0 in center_z  # the fill contribution


def test_fill_matches_point_in_triangle_oracle():
    # Random triangles, avoiding cell-center/edge coincidences with
    # probability one; the even-odd fill must equal the cells whose centers
    # lie strictly inside (sign-of-cross-products test).
    rng = np.random.default_rng(11)
    grid = RasterGrid(12, 12, 0.0, 0.0, 1.0, -9999.0, np.zeros((12, 12)))
    centers = [
        (row, col, col + 0.5, 12 - 1 - row + 0.5)
        for row in range(12) for col in range(12)
    ]
    for _ in range(30):
        ax, ay, bx, by, cx, cy = rng.uniform(0.0, 12.0, size=6)
        ring = feat(
            FeatureKind.POLYGON,
            (ax, ay, 1.0), (bx, by, 1.0), (cx, cy, 1.0), (ax, ay, 1.0),
        )
        filled = cells_of(contributions(ring, grid))

        def side(px, py, qx, qy, x, y):
            return (qx - px) * (y - py) - (qy - py) * (x - px)

        for row, col, x, y in centers:
            d1 = side(ax, ay, bx, by, x, y)
            d2 = side(bx, by, cx, cy, x, y)
            d3 = side(cx, cy, ax, ay, x, y)
            inside = (d1 > 0 and d2 > 0 and d3 > 0) or (d1 < 0 and d2 < 0 and d3 < 0)
            if inside:
                assert (row, col) in filled


# --------------------------------------------------------------------------
# Extrusion
# --------------------------------------------------------------------------


def make_dtm(values):
    values = np.asarray(values, dtype=float)
    return RasterGrid(values.shape[1], values.shape[0], 0.0, 0.0, 1.0, -9999.0, values)


def test_extrude_takes_cellwise_max():
    dtm = make_dtm([[1.0, 5.0], [1.0, 1.0]])
    values = raised(dtm, [((0, 0), 3.0), ((0, 1), 3.0), ((0, 0), 2.0)])
    np.testing.assert_array_equal(values, [[3.0, 5.0], [1.0, 1.0]])


def test_extrude_never_lowers_terrain():
    rng = np.random.default_rng(5)
    dtm = make_dtm(rng.uniform(0.0, 10.0, size=(8, 8)))
    cells = [((int(r), int(c)), float(z))
             for r, c, z in rng.uniform(0, 8, size=(50, 3))]
    assert (raised(dtm, cells) >= dtm.values).all()


def test_extrude_is_order_independent():
    rng = np.random.default_rng(6)
    dtm = make_dtm(rng.uniform(0.0, 10.0, size=(6, 6)))
    cells = [((int(r), int(c)), float(z))
             for r, c, z in rng.uniform(0, 6, size=(40, 3))]
    base = raised(dtm, cells)
    for _ in range(5):
        rng.shuffle(cells)
        np.testing.assert_array_equal(raised(dtm, cells), base)


def test_extrude_skips_nodata_cells_with_warning(caplog):
    dtm = make_dtm([[1.0, -9999.0]])
    with caplog.at_level(logging.WARNING):
        values = raised(dtm, [((0, 1), 4.0), ((0, 0), 4.0)])
    assert values[0, 1] == -9999.0
    assert values[0, 0] == 4.0
    assert "skipped 1" in caplog.text


# --------------------------------------------------------------------------
# build_dsm pipeline
# --------------------------------------------------------------------------


def test_build_dsm_selects_closes_and_extrudes():
    dtm = make_dtm(np.zeros((5, 5)))
    features = [
        # Nearly closed wall ring, class 30: becomes a polygon and fills.
        feat(FeatureKind.LINE, (0.25, 0.25, 2.0), (1.75, 0.25, 2.0),
             (1.75, 1.75, 2.0), (0.25, 0.30, 2.0), class_id=30),
        # Ignored class.
        feat(FeatureKind.POINT, (4.5, 4.5, 9.0), class_id=99),
    ]
    dsm = build_dsm(dtm, features, {30}, close_tolerance=0.1)
    assert dsm.values[3, 0] == 2.0  # interior of the closed ring
    assert dsm.values[0, 4] == 0.0  # class 99 untouched
    assert (dtm.values == 0.0).all()  # input untouched


def test_build_dsm_rejects_empty_selection():
    with pytest.raises(ValueError, match="empty"):
        build_dsm(make_dtm(np.zeros((2, 2))), [], set())


# --------------------------------------------------------------------------
# Array core against the per-feature reference
# --------------------------------------------------------------------------
#
# The functions below are the per-feature, per-segment, per-cell Python
# implementation that the array core replaced, kept verbatim as the
# reference.  Every case must give the same contributions in the same order
# with the same bits, and build_dsm the same DSM bytes and the same count of
# contributions skipped on nodata terrain.

ref_logger = logging.getLogger("reference.rasterize")


def ref_cell_at(grid, x, y):
    col = math.floor((x - grid.xll) / grid.cellsize)
    row_s = math.floor((y - grid.yll) / grid.cellsize)
    if 0 <= col < grid.ncols and 0 <= row_s < grid.nrows:
        return grid.nrows - 1 - row_s, col
    return None


def ref_gridline_crossings(p0, p1, origin, cellsize, ncells):
    if p0 == p1:
        return []
    lo, hi = min(p0, p1), max(p0, p1)
    k0 = max(0, math.ceil((lo - origin) / cellsize))
    k1 = min(ncells, math.floor((hi - origin) / cellsize))
    ts = []
    for k in range(k0, k1 + 1):
        t = (origin + k * cellsize - p0) / (p1 - p0)
        if 0.0 < t < 1.0:
            ts.append(t)
    return ts


def ref_supercover_segment(grid, v0, v1):
    x0, y0, z0 = v0
    x1, y1, z1 = v1
    if x0 == x1 and y0 == y1:
        cell = ref_cell_at(grid, x0, y0)
        return [(cell, z0)] if cell is not None else []

    ts = sorted(
        set(ref_gridline_crossings(x0, x1, grid.xll, grid.cellsize, grid.ncols))
        | set(ref_gridline_crossings(y0, y1, grid.yll, grid.cellsize, grid.nrows))
        | {0.0, 1.0}
    )

    out = []
    prev_cell = None
    for ta, tb in zip(ts[:-1], ts[1:]):
        tm = 0.5 * (ta + tb)
        cell = ref_cell_at(grid, x0 + tm * (x1 - x0), y0 + tm * (y1 - y0))
        zm = z0 + tm * (z1 - z0)
        if cell is not None:
            if (
                prev_cell is not None
                and cell[0] != prev_cell[0]
                and cell[1] != prev_cell[1]
            ):
                zc = z0 + ta * (z1 - z0)
                for bridge in ((prev_cell[0], cell[1]), (cell[0], prev_cell[1])):
                    if 0 <= bridge[0] < grid.nrows and 0 <= bridge[1] < grid.ncols:
                        out.append((bridge, zc))
            out.append((cell, zm))
        prev_cell = cell
    return out


def ref_scanline_fill(grid, vertices):
    xs = vertices[:, 0]
    ys = vertices[:, 1]
    row_lo = max(0, grid.nrows - 2 - math.floor((ys.max() - grid.yll) / grid.cellsize))
    row_hi = min(grid.nrows - 1, grid.nrows - math.floor((ys.min() - grid.yll) / grid.cellsize))

    cells = []
    for row in range(row_lo, row_hi + 1):
        yc = grid.yll + (grid.nrows - 1 - row + 0.5) * grid.cellsize
        crossings = []
        for (px, py), (qx, qy) in zip(
            zip(xs[:-1], ys[:-1]), zip(xs[1:], ys[1:])
        ):
            if (py <= yc < qy) or (qy <= yc < py):
                crossings.append(px + (yc - py) / (qy - py) * (qx - px))
        crossings.sort()
        for xa, xb in zip(crossings[0::2], crossings[1::2]):
            c0 = math.ceil((xa - grid.xll) / grid.cellsize - 0.5)
            c1 = math.ceil((xb - grid.xll) / grid.cellsize - 0.5) - 1
            for col in range(max(c0, 0), min(c1, grid.ncols - 1) + 1):
                cells.append((row, col))
    return cells


def ref_rasterize_feature(feature, template):
    verts = feature.vertices
    if feature.kind is FeatureKind.POINT:
        cell = ref_cell_at(template, verts[0, 0], verts[0, 1])
        return [(cell, verts[0, 2])] if cell is not None else []

    out = []
    for i in range(len(verts) - 1):
        out.extend(ref_supercover_segment(template, verts[i], verts[i + 1]))
    if feature.kind is FeatureKind.POLYGON:
        z_fill = float(verts[:, 2].max())
        out.extend((cell, z_fill) for cell in ref_scanline_fill(template, verts))
    return out


def ref_extrude(dtm, cells):
    dsm = dtm.copy()
    skipped = 0
    for (row, col), z in cells:
        if dsm.values[row, col] == dsm.nodata:
            skipped += 1
            continue
        if z > dsm.values[row, col]:
            dsm.values[row, col] = z
    if skipped:
        ref_logger.warning("skipped %d feature cell(s) on nodata terrain", skipped)
    return dsm


def ref_build_dsm(dtm, features, class_ids, close_tolerance=0.1):
    selected = close_lines(select_classes(features, class_ids), close_tolerance)
    cells = []
    for feature in selected:
        cells.extend(ref_rasterize_feature(feature, dtm))
    return ref_extrude(dtm, cells)


NODATA = -9999.0


def exact(contribs):
    """Contributions with z as its exact bits, signed zeros included."""
    return [((int(r), int(c)), float(z).hex()) for (r, c), z in contribs]


class Warnings(logging.Handler):
    """Collects the messages of the warnings logged to one logger."""

    def __init__(self, name):
        super().__init__(logging.WARNING)
        self.logger = logging.getLogger(name)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())

    def __enter__(self):
        self.logger.addHandler(self)
        return self

    def __exit__(self, *exc):
        self.logger.removeHandler(self)


def both_builds(dtm, features, class_ids):
    """(DSM, warnings) of build_dsm and of the reference on the same input."""
    with Warnings("swflood.rasterize") as new, Warnings("reference.rasterize") as ref:
        dsm = build_dsm(dtm, features, class_ids)
        expected = ref_build_dsm(dtm, features, class_ids)
    return (dsm, new.messages), (expected, ref.messages)


def axis_coords(origin, cellsize, n):
    """Coordinates on gridlines, on cell-centre lines and anywhere around a grid axis."""
    return st.one_of(
        st.integers(-2, n + 2).map(lambda k: origin + k * cellsize),
        st.integers(-2, n + 1).map(lambda k: origin + (k + 0.5) * cellsize),
        st.floats(origin - 2 * cellsize, origin + (n + 2) * cellsize),
        st.floats(origin - 1e3, origin + 1e3),
    )


heights = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-50.0, 50.0))


@st.composite
def grids(draw):
    nrows = draw(st.integers(1, 9))
    ncols = draw(st.integers(1, 9))
    cellsize = draw(st.sampled_from([1.0, 0.5, 0.3, 2.5]))
    xll = draw(st.sampled_from([0.0, -3.7, 12.25]))
    yll = draw(st.sampled_from([0.0, 0.1, -101.5]))
    terrain = st.one_of(st.sampled_from([NODATA, 0.0, -0.0]), st.floats(-60.0, 60.0))
    values = draw(hnp.arrays(np.float64, (nrows, ncols), elements=terrain))
    return RasterGrid(ncols, nrows, xll, yll, cellsize, NODATA, values)


@st.composite
def features_on(draw, grid):
    """One feature whose vertices come from a few shared x and y values, so
    repeated vertices, horizontal and vertical edges and exact gridline and
    corner crossings are common."""
    xs = draw(st.lists(axis_coords(grid.xll, grid.cellsize, grid.ncols), min_size=1, max_size=4))
    ys = draw(st.lists(axis_coords(grid.yll, grid.cellsize, grid.nrows), min_size=1, max_size=4))
    vertex = st.tuples(st.sampled_from(xs), st.sampled_from(ys), heights)
    kind = draw(st.sampled_from(["POINT", "LINE", "POLYGON", "RING"]))
    class_id = draw(st.sampled_from([1, 1, 2]))
    if kind == "POINT":
        return feat(FeatureKind.POINT, draw(vertex), class_id=class_id)
    if kind == "LINE":
        return feat(FeatureKind.LINE, *draw(st.lists(vertex, min_size=2, max_size=6)),
                    class_id=class_id)
    ring = draw(st.lists(vertex, min_size=2, max_size=6))
    if kind == "POLYGON":
        return feat(FeatureKind.POLYGON, *ring, ring[0], class_id=class_id)
    # A line that stops just short of its start: close_lines makes it a polygon.
    dx, dy = draw(st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)))
    x, y, z = ring[0]
    return feat(FeatureKind.LINE, *ring, (x + dx, y + dy, z), class_id=class_id)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_rasterize_feature_matches_reference_exactly(data):
    grid = data.draw(grids())
    feature = data.draw(features_on(grid))
    assert exact(contributions(feature, grid)) == exact(ref_rasterize_feature(feature, grid))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_build_dsm_matches_reference_bitwise(data):
    dtm = data.draw(grids())
    features = data.draw(st.lists(features_on(dtm), min_size=1, max_size=8))
    (dsm, warned), (expected, ref_warned) = both_builds(dtm, features, {1})
    assert dsm.values.tobytes() == expected.values.tobytes()
    assert warned == ref_warned


@pytest.mark.parametrize("verts", [
    # Through the corner (1, 1) of a unit grid with its ends on gridlines.
    [(0.0, 0.0, 1.0), (2.0, 2.0, 3.0)],
    # Along a gridline, then back along it.
    [(1.0, 0.0, 1.0), (1.0, 4.0, 2.0), (1.0, 1.0, 3.0)],
    # Repeated vertices, on and off the grid.
    [(2.5, 2.5, 1.0), (2.5, 2.5, 4.0), (7.0, 2.5, 2.0), (7.0, 2.5, 9.0)],
    # Entirely off the grid.
    [(-3.0, -3.0, 1.0), (-1.0, 9.0, 2.0)],
])
def test_lines_on_gridlines_and_corners_match_reference(verts):
    line = feat(FeatureKind.LINE, *verts)
    assert exact(contributions(line, GRID5)) == exact(ref_rasterize_feature(line, GRID5))


def test_polygon_with_horizontal_edges_on_cell_centres_matches_reference():
    # The horizontal edges lie on the scanlines y = 0.5 and y = 3.5.
    grid = RasterGrid(6, 5, -3.7, 0.1, 0.5, NODATA, np.zeros((5, 6)))
    y0, y1 = 0.1 + 0.5 * 0.5, 0.1 + 3.5 * 0.5
    ring = feat(FeatureKind.POLYGON, (-3.7, y0, 1.0), (-1.0, y0, 2.0), (-1.0, y1, 3.0),
                (-2.2, y1, 0.0), (-3.7, y0, 1.0))
    assert exact(contributions(ring, grid)) == exact(ref_rasterize_feature(ring, grid))


def test_nodata_terrain_skips_as_reference_does():
    dtm = make_dtm([[1.0, NODATA, 0.0], [NODATA, -2.0, 5.0]])
    features = [
        feat(FeatureKind.LINE, (0.5, 1.5, 3.0), (2.5, 1.5, 4.0)),
        feat(FeatureKind.POLYGON, (0.2, 0.2, 9.0), (2.8, 0.2, 9.0), (1.5, 1.8, 9.0),
             (0.2, 0.2, 9.0)),
        feat(FeatureKind.POINT, (0.5, 0.5, 7.0)),
    ]
    (dsm, warned), (expected, ref_warned) = both_builds(dtm, features, {1})
    assert dsm.values.tobytes() == expected.values.tobytes()
    assert warned == ref_warned
    assert warned and "skipped" in warned[0]


def test_nodata_cells_are_those_of_the_terrain():
    # A cell raised to exactly the nodata value is still terrain: a later,
    # higher contribution raises it further and none is counted as skipped.
    dtm = RasterGrid(1, 1, 0.0, 0.0, 1.0, 0.0, np.array([[-1.0]]))
    with Warnings("swflood.rasterize") as warned:
        values = raised(dtm, [((0, 0), 0.0), ((0, 0), 5.0)])
    assert values[0, 0] == 5.0
    assert warned.messages == []


def test_signed_zero_ties_keep_the_first_contribution():
    # Both zeros raise the -1 cell; the earlier contribution decides the sign.
    dtm = make_dtm([[-1.0]])
    for first, second in ((-0.0, 0.0), (0.0, -0.0)):
        cells = [((0, 0), first), ((0, 0), second)]
        assert raised(dtm, cells).tobytes() == ref_extrude(dtm, cells).values.tobytes()
    # A contribution equal to the terrain leaves the terrain's zero.
    dtm = make_dtm([[0.0, -0.0]])
    cells = [((0, 0), -0.0), ((0, 1), 0.0)]
    assert raised(dtm, cells).tobytes() == dtm.values.tobytes()
    # Across features, the earlier feature decides, whatever its kind.
    dtm = make_dtm(np.full((2, 2), -1.0))
    wall = feat(FeatureKind.LINE, (0.5, 0.5, 0.0), (1.5, 0.5, 0.0))
    post = feat(FeatureKind.POINT, (0.5, 0.5, -0.0))
    for features in ([wall, post], [post, wall]):
        (dsm, _), (expected, _) = both_builds(dtm, features, {1})
        assert dsm.values.tobytes() == expected.values.tobytes()


def seeded_town(seed, n=200, count=2000):
    """A DTM with nodata holes and ``count`` seeded features on 0.5-m cells at
    an offset origin.  Half the features have their vertices on the
    quarter-cell lattice, so they meet gridlines, corners and cell-centre
    scanlines exactly."""
    rng = np.random.default_rng(seed)
    cs, xll, yll = 0.5, 1000.25, -37.5
    values = rng.uniform(-2.0, 6.0, size=(n, n))
    values[rng.random((n, n)) < 0.01] = NODATA
    dtm = RasterGrid(n, n, xll, yll, cs, NODATA, values)
    features = []
    for kind in rng.choice(["POINT", "LINE", "POLYGON", "RING"], size=count,
                           p=[0.3, 0.35, 0.25, 0.1]):
        k = {"POINT": 1, "LINE": int(rng.integers(2, 6))}.get(kind, int(rng.integers(3, 7)))
        start = rng.uniform(-10.0, n * cs + 10.0, size=2)
        steps = rng.uniform(-4.0, 4.0, size=(k, 2))
        steps[rng.random(k) < 0.1] = 0.0  # repeated vertices
        xy = start + np.cumsum(steps, axis=0)
        if rng.random() < 0.5:
            xy = np.round(xy / (cs / 2)) * (cs / 2)
        verts = np.column_stack([xy + (xll, yll), rng.uniform(-3.0, 12.0, size=k)])
        class_id = 2 if rng.random() < 0.05 else 1
        if kind == "POLYGON":
            verts = np.vstack([verts, verts[0]])
        elif kind == "RING":
            verts = np.vstack([verts, verts[0] + (0.03, -0.02, 0.0)])
        features.append(ClassifiedFeature(
            class_id, FeatureKind.POINT if kind == "POINT" else
            FeatureKind.POLYGON if kind == "POLYGON" else FeatureKind.LINE, verts))
    return dtm, features


# sha256 of the DSM bytes of seeded_town(7), recorded with the per-feature
# implementation before the array core replaced it.
TOWN_DSM_SHA256 = "e56dfad030c1674754e726614f3d1178095ad4143f34f182bb3ad99cc66601bf"


def test_seeded_town_dsm_bytes_are_pinned():
    dtm, features = seeded_town(7)
    (dsm, warned), (expected, ref_warned) = both_builds(dtm, features, {1})
    assert dsm.values.tobytes() == expected.values.tobytes()
    assert warned == ref_warned
    assert hashlib.sha256(dsm.values.tobytes()).hexdigest() == TOWN_DSM_SHA256

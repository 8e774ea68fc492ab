"""Tests for edge conditions: wall mirror, outflow copy, discharge inflow."""

import math

import numpy as np
import pytest

from swflood.boundary import (
    BoundarySpec,
    EdgeCondition,
    EdgeKind,
    apply_boundaries,
    discharge,
    edge_mask_from_cells,
    free_outflow,
    read_riverbed_mask,
    riemann_inflow,
    wall,
)
from swflood.state import GHOSTS, INT, PhysicalParams, State

G = 9.81
PARAMS = PhysicalParams()


def random_state(n=8, seed=0, dx=1.0):
    rng = np.random.default_rng(seed)
    st = State(n, n, dx, dx, rng.uniform(0.0, 0.3, size=(n, n)))
    st.h[INT] = rng.uniform(0.5, 2.0, size=(n, n))
    st.hu[INT] = rng.uniform(-1.0, 1.0, size=(n, n))
    st.hv[INT] = rng.uniform(-1.0, 1.0, size=(n, n))
    return st


# --------------------------------------------------------------------------
# Edge condition construction
# --------------------------------------------------------------------------


def test_condition_validation():
    with pytest.raises(ValueError, match="takes no discharge or mask"):
        EdgeCondition(EdgeKind.WALL, mask=np.array([1]))
    with pytest.raises(ValueError, match="discharge function"):
        EdgeCondition(EdgeKind.DISCHARGE, mask=np.array([1]))
    with pytest.raises(ValueError, match="non-empty riverbed mask"):
        EdgeCondition(EdgeKind.DISCHARGE, discharge=lambda t: 1.0, mask=np.array([]))


def test_discharge_mask_deduplicated_and_sorted():
    cond = discharge(lambda t: 1.0, [5, 2, 5, 3])
    np.testing.assert_array_equal(cond.mask, [2, 3, 5])


@pytest.mark.parametrize("mask", [[-1], [-5], [3, -1]])
def test_discharge_mask_rejects_negative_indices(mask):
    with pytest.raises(ValueError, match=f"riverbed mask index {min(mask)} is negative"):
        discharge(lambda t: 1.0, mask)


@pytest.mark.parametrize("edge, mask, length", [
    ("north", [10], 10), ("north", [3, 12], 10), ("south", [10], 10), ("west", [6], 6),
])
def test_discharge_mask_past_its_edge_rejected(edge, mask, length):
    # A 6x10 grid: index 10 of the north edge would feed a corner ghost.
    st = State(6, 10, 1.0, 1.0, np.zeros((6, 10)))
    conditions = dict.fromkeys(("north", "south", "east", "west"), wall())
    conditions[edge] = discharge(lambda t: 1.0, mask)
    with pytest.raises(ValueError, match=f"{edge} riverbed mask index {max(mask)} "
                                         f"is outside the edge's {length} cells"):
        apply_boundaries(st, BoundarySpec(**conditions), 0.0, PARAMS)


# --------------------------------------------------------------------------
# Wall and free outflow fills
# --------------------------------------------------------------------------


def test_wall_mirror_simple_values():
    # Uniform (h, u, v) = (1, 2, 3): the west ghost column must read
    # (1, -2, 3) so the interface Riemann problem has zero normal velocity.
    st = State(6, 6, 1.0, 1.0, np.zeros((6, 6)))
    st.h[INT] = 1.0
    st.hu[INT] = 2.0
    st.hv[INT] = 3.0
    apply_boundaries(st, BoundarySpec.walls(), 0.0, PARAMS)
    r = slice(GHOSTS, -GHOSTS)
    np.testing.assert_array_equal(st.h[r, 1], 1.0)
    np.testing.assert_array_equal(st.hu[r, 1], -2.0)
    np.testing.assert_array_equal(st.hv[r, 1], 3.0)
    # north edge flips v instead of u
    np.testing.assert_array_equal(st.hu[1, r], 2.0)
    np.testing.assert_array_equal(st.hv[1, r], -3.0)


def test_wall_mirror_all_edges_random_field():
    st = random_state(seed=7)
    apply_boundaries(st, BoundarySpec.walls(), 0.0, PARAMS)
    r = slice(GHOSTS, -GHOSTS)
    for arr, flip_x, flip_y in ((st.h, 1, 1), (st.z, 1, 1),
                                (st.hu, -1, 1), (st.hv, 1, -1)):
        # west/east ghost columns mirror interior columns
        np.testing.assert_array_equal(arr[r, 1], flip_x * arr[r, 2])
        np.testing.assert_array_equal(arr[r, 0], flip_x * arr[r, 3])
        np.testing.assert_array_equal(arr[r, -2], flip_x * arr[r, -3])
        np.testing.assert_array_equal(arr[r, -1], flip_x * arr[r, -4])
        # north/south ghost rows
        np.testing.assert_array_equal(arr[1, r], flip_y * arr[2, r])
        np.testing.assert_array_equal(arr[0, r], flip_y * arr[3, r])
        np.testing.assert_array_equal(arr[-2, r], flip_y * arr[-3, r])
        np.testing.assert_array_equal(arr[-1, r], flip_y * arr[-4, r])


def test_free_outflow_copies_first_interior_line():
    st = random_state(seed=8)
    spec = BoundarySpec(wall(), wall(), free_outflow(), wall())  # east open
    apply_boundaries(st, spec, 0.0, PARAMS)
    r = slice(GHOSTS, -GHOSTS)
    for arr in (st.h, st.hu, st.hv, st.z):
        np.testing.assert_array_equal(arr[r, -1], arr[r, -3])
        np.testing.assert_array_equal(arr[r, -2], arr[r, -3])


def test_fills_leave_corner_ghosts_untouched():
    st = random_state(seed=9)
    sentinel = 777.0
    for block in ((slice(0, 2), slice(0, 2)), (slice(0, 2), slice(-2, None)),
                  (slice(-2, None), slice(0, 2)), (slice(-2, None), slice(-2, None))):
        st.h[block] = sentinel
    apply_boundaries(st, BoundarySpec.walls(), 0.0, PARAMS)
    for block in ((slice(0, 2), slice(0, 2)), (slice(0, 2), slice(-2, None)),
                  (slice(-2, None), slice(0, 2)), (slice(-2, None), slice(-2, None))):
        np.testing.assert_array_equal(st.h[block], sentinel)


def edge_ghosts(st):
    """Every ghost cell outside the four corner blocks."""
    ghost = np.ones(st.h.shape, dtype=bool)
    ghost[INT] = False
    ghost[:GHOSTS, :GHOSTS] = ghost[:GHOSTS, -GHOSTS:] = False
    ghost[-GHOSTS:, :GHOSTS] = ghost[-GHOSTS:, -GHOSTS:] = False
    return [arr[ghost].copy() for arr in (st.h, st.hu, st.hv, st.z)]


@pytest.mark.parametrize("shape", [(1, 5), (5, 1), (1, 1), (2, 3)])
@pytest.mark.parametrize("kind", ["wall", "free_outflow", "discharge"])
def test_ghost_fill_is_a_function_of_the_interior(shape, kind):
    # On a grid one cell thick the outer ghost layer of an edge lies next to
    # the opposite edge's ghosts; it must still be mirrored from the interior.
    rng = np.random.default_rng(21)
    st = State(*shape, 1.0, 1.0, rng.uniform(0.0, 0.3, size=shape))
    st.h[INT] = rng.uniform(0.5, 2.0, size=shape)
    st.hu[INT] = rng.uniform(-1.0, 1.0, size=shape)
    st.hv[INT] = rng.uniform(-1.0, 1.0, size=shape)
    edge = {"wall": wall, "free_outflow": free_outflow}.get(kind)
    if edge is None:
        # Inflow on the first cell of two edges; the rest of each is a wall.
        spec = BoundarySpec(discharge(lambda t: 0.5 + t, [0]), wall(), wall(),
                            discharge(lambda t: 0.25, [0]))
    else:
        spec = BoundarySpec(edge(), edge(), edge(), edge())
    interior = [arr[INT].copy() for arr in (st.h, st.hu, st.hv, st.z)]

    apply_boundaries(st, spec, 0.3, PARAMS)
    first = edge_ghosts(st)
    apply_boundaries(st, spec, 0.3, PARAMS)
    for got, want in zip(edge_ghosts(st), first):
        np.testing.assert_array_equal(got, want)

    for arr in (st.h, st.hu, st.hv, st.z):
        saved = arr[INT].copy()
        arr[...] = rng.uniform(-50.0, 50.0, size=arr.shape)
        arr[INT] = saved
    apply_boundaries(st, spec, 0.3, PARAMS)
    for got, want in zip(edge_ghosts(st), first):
        np.testing.assert_array_equal(got, want)
    for arr, want in zip((st.h, st.hu, st.hv, st.z), interior):
        np.testing.assert_array_equal(arr[INT], want)
    if kind == "wall" and shape[0] == 1:
        # Both north ghost rows mirror the single interior row.
        np.testing.assert_array_equal(st.h[0, GHOSTS:-GHOSTS], st.h[GHOSTS, GHOSTS:-GHOSTS])
        np.testing.assert_array_equal(st.hv[0, GHOSTS:-GHOSTS], -st.hv[GHOSTS, GHOSTS:-GHOSTS])


# --------------------------------------------------------------------------
# Riemann inflow state
# --------------------------------------------------------------------------


def test_riemann_inflow_zero_discharge_is_rest():
    assert riemann_inflow(0.8, -0.4, 0.0, G) == (0.8, 0.0, False)


def test_riemann_inflow_rejects_negative():
    with pytest.raises(ValueError, match="non-negative"):
        riemann_inflow(1.0, 0.0, -0.1, G)


@pytest.mark.parametrize("q_b", [math.nan, math.inf])
def test_riemann_inflow_rejects_non_finite(q_b):
    with pytest.raises(ValueError, match="finite non-negative"):
        riemann_inflow(0.5, 0.0, q_b, G)


def test_riemann_inflow_satisfies_both_equations():
    # Subcritical ghost states must carry the demanded discharge and share
    # the interior's outgoing characteristic invariant.
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(300):
        h_i = rng.uniform(0.1, 3.0)
        u_i = rng.uniform(-1.5, 1.5)
        q_b = rng.uniform(0.01, 2.0)
        out = riemann_inflow(h_i, u_i, q_b, G)
        assert out.h > 0 and out.u > 0
        if out.critical:
            continue
        checked += 1
        assert out.h * out.u == pytest.approx(q_b, rel=1e-12)
        invariant = u_i - 2.0 * math.sqrt(G * h_i)
        assert out.u - 2.0 * math.sqrt(G * out.h) == pytest.approx(
            invariant, abs=1e-10)
        assert out.u < math.sqrt(G * out.h) * (1.0 + 1e-9)  # subcritical
    assert checked > 200  # most draws admit a subcritical state


def test_riemann_inflow_critical_fallback_on_dry_interior():
    # A dry interior cannot support any subcritical inflow, so the ghost
    # state falls back to Froude = 1 at the demanded discharge.
    q_b = 0.7
    out = riemann_inflow(0.0, 0.0, q_b, G)
    assert out.critical
    h_crit = (q_b * q_b / G) ** (1.0 / 3.0)
    assert out.h == pytest.approx(h_crit, rel=1e-14)
    assert out.u == pytest.approx(math.sqrt(G * h_crit), rel=1e-12)


@pytest.mark.parametrize("q_b", [1e-170, 1e-300, 5e-324])
@pytest.mark.parametrize("h_i", [0.0, 0.5])
def test_riemann_inflow_of_a_discharge_whose_square_underflows(h_i, q_b):
    out = riemann_inflow(h_i, 0.0, q_b, G)
    assert math.isfinite(out.h) and out.h > 0 and math.isfinite(out.u)


# --------------------------------------------------------------------------
# Discharge edge fill
# --------------------------------------------------------------------------


def test_discharge_edge_carries_total_inflow():
    st = random_state(n=8, seed=12, dx=0.5)
    mask = np.array([2, 3, 5])
    q_total = 3.0
    spec = BoundarySpec(wall(), wall(), wall(),
                        discharge(lambda t: q_total, mask))
    fallbacks = apply_boundaries(st, spec, 0.0, PARAMS)
    assert fallbacks == 0  # wet interior, modest discharge
    ghost_q = st.hu[mask + GHOSTS, 1]
    assert ghost_q.sum() * st.dy == pytest.approx(q_total, rel=1e-12)
    assert (ghost_q > 0).all()
    np.testing.assert_array_equal(st.hu[mask + GHOSTS, 0], ghost_q)
    np.testing.assert_array_equal(st.hv[mask + GHOSTS, 0:2], 0.0)
    # unmasked rows on the same edge behave as a wall
    assert st.hu[4 + GHOSTS, 1] == -st.hu[4 + GHOSTS, 2]


@pytest.mark.parametrize("edge", ["west", "north"])
def test_discharge_spreads_over_the_cell_side_along_its_edge(edge):
    # With dx = 1 and dy = 0.25, 2 m3/s over 4 cells is 2 m2/s per cell on a
    # west edge (faces dy high) and 0.5 m2/s on a north edge (faces dx wide).
    st = State(9, 7, 1.0, 0.25, np.zeros((9, 7)))
    st.h[INT] = 1.0
    mask = np.array([1, 2, 4, 5])
    conditions = dict.fromkeys(("north", "south", "east", "west"), wall())
    conditions[edge] = discharge(lambda t: 2.0, mask)
    assert apply_boundaries(st, BoundarySpec(**conditions), 0.0, PARAMS) == 0
    if edge == "west":
        ghost_q, expected = st.hu[mask + GHOSTS, :GHOSTS], 2.0 / (4 * st.dy)
    else:
        ghost_q, expected = st.hv[:GHOSTS, mask + GHOSTS], 2.0 / (4 * st.dx)
    np.testing.assert_allclose(ghost_q, expected, rtol=1e-12)


def test_discharge_onto_dry_bed_counts_fallbacks():
    st = State(6, 6, 1.0, 1.0, np.zeros((6, 6)))
    spec = BoundarySpec(wall(), wall(), wall(),
                        discharge(lambda t: 5.0, [1, 2, 3]))
    assert apply_boundaries(st, spec, 0.0, PARAMS) == 3


def test_discharge_negative_rate_rejected():
    st = random_state(seed=13)
    spec = BoundarySpec(wall(), wall(), wall(),
                        discharge(lambda t: -2.0, [3]))
    with pytest.raises(ValueError, match="negative discharge"):
        apply_boundaries(st, spec, 0.0, PARAMS)


@pytest.mark.parametrize("q", [math.nan, math.inf])
def test_discharge_non_finite_rate_rejected(q):
    st = random_state(seed=13)
    spec = BoundarySpec(wall(), wall(), wall(), discharge(lambda t: q, [3]))
    with pytest.raises(ValueError, match=r"non-finite or negative discharge .* at t = 0\.25"):
        apply_boundaries(st, spec, 0.25, PARAMS)


def test_discharge_rate_follows_time():
    st = random_state(seed=14)
    mask = [2, 4]
    spec = BoundarySpec(wall(), wall(), wall(),
                        discharge(lambda t: 2.0 * t, mask))
    apply_boundaries(st, spec, 3.0, PARAMS)
    total = st.hu[np.array(mask) + GHOSTS, 1].sum() * st.dy
    assert total == pytest.approx(6.0, rel=1e-12)


# --------------------------------------------------------------------------
# Riverbed mask files
# --------------------------------------------------------------------------


def test_read_riverbed_mask_with_comments():
    text = "# channel cells\n3 0\n\n 4 0  # note\n5 0\n"
    assert read_riverbed_mask(text) == [(3, 0), (4, 0), (5, 0)]


@pytest.mark.parametrize("text, fragment", [
    ("3 0 7\n", "expected 'row col'"),
    ("3\n", "expected 'row col'"),
    ("a b\n", "bad cell index"),
    ("1 0\n2.5 0\n", "line 2"),
])
def test_read_riverbed_mask_malformed(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        read_riverbed_mask(text)


def test_edge_mask_from_cells_checks_edge_membership():
    along = edge_mask_from_cells([(0, 3), (0, 1), (0, 1)], "north", 4, 6)
    np.testing.assert_array_equal(along, [1, 3])
    along = edge_mask_from_cells([(2, 0), (1, 0)], "west", 4, 6)
    np.testing.assert_array_equal(along, [1, 2])
    with pytest.raises(ValueError, match="not on the east edge"):
        edge_mask_from_cells([(1, 3)], "east", 4, 6)
    with pytest.raises(ValueError, match="outside the grid"):
        edge_mask_from_cells([(4, 0)], "west", 4, 6)

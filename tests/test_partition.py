"""Tests for block tiling, deterministic reductions, and halo stepping."""

import numpy as np
import pytest

from swflood import partition
from swflood.boundary import BoundarySpec, EdgeKind, discharge, free_outflow, wall
from swflood.partition import (
    Block,
    BlockEngine,
    _block_boundary,
    global_reduce,
    make_partition,
    pairwise_sum,
)
from swflood.solver import rk2_step
from swflood.state import GHOSTS, INT, PhysicalParams, State

PARAMS = PhysicalParams()


def random_wet_state(nrows, ncols, seed=0, dx=1.0):
    rng = np.random.default_rng(seed)
    st = State(nrows, ncols, dx, dx, rng.uniform(0.0, 0.2, size=(nrows, ncols)))
    st.h[INT] = rng.uniform(0.5, 1.5, size=(nrows, ncols))
    st.hu[INT] = rng.uniform(-0.5, 0.5, size=(nrows, ncols))
    st.hv[INT] = rng.uniform(-0.5, 0.5, size=(nrows, ncols))
    return st


# --------------------------------------------------------------------------
# Tiling
# --------------------------------------------------------------------------


def test_partition_single_block_covers_grid():
    part = make_partition(100, 100, 1)
    assert part.blocks == [Block(0, 100, 0, 100)]


def test_partition_square_grid_prefers_square_tiles():
    part = make_partition(100, 100, 4)
    assert (part.brows, part.bcols) == (2, 2)
    assert part.blocks[0] == Block(0, 50, 0, 50)
    assert part.blocks[3] == Block(50, 100, 50, 100)


def test_partition_wide_grid_splits_along_columns():
    # 10x100: column strips keep the halo perimeter smallest.
    part = make_partition(10, 100, 4)
    assert (part.brows, part.bcols) == (1, 4)
    assert [(b.col0, b.col1) for b in part.blocks] == [
        (0, 25), (25, 50), (50, 75), (75, 100)]


def test_partition_uneven_sizes_differ_by_at_most_one():
    part = make_partition(4, 10, 8)
    assert (part.brows, part.bcols) == (2, 4)
    widths = sorted({b.col1 - b.col0 for b in part.blocks})
    assert widths == [2, 3]
    # blocks tile the grid exactly
    cover = np.zeros((4, 10), dtype=int)
    for b in part.blocks:
        cover[b.row0:b.row1, b.col0:b.col1] += 1
    assert (cover == 1).all()


@pytest.mark.parametrize("nrows, ncols, nblocks, fragment", [
    (4, 4, 0, "at least one block"),
    (2, 2, 5, "exceed 4 cells"),
    (2, 2, 3, "cannot tile"),
])
def test_partition_errors(nrows, ncols, nblocks, fragment):
    with pytest.raises(ValueError, match=fragment):
        make_partition(nrows, ncols, nblocks)


# --------------------------------------------------------------------------
# Reductions
# --------------------------------------------------------------------------


def test_pairwise_sum_matches_fixed_tree():
    rng = np.random.default_rng(21)
    v = rng.uniform(-1.0, 1.0, size=5)
    # ladder: ((v0+v1)+(v2+v3)) + v4, bitwise
    expect = ((v[0] + v[1]) + (v[2] + v[3])) + v[4]
    assert pairwise_sum(v) == expect
    assert pairwise_sum([]) == 0.0
    assert pairwise_sum([3.25]) == 3.25


def test_pairwise_sum_independent_of_chunking():
    # the invariant the engine relies on: per-block partials reduced by the
    # same ladder give the same float for any block split
    rng = np.random.default_rng(22)
    v = list(rng.uniform(0.0, 1.0, size=8))
    whole = pairwise_sum(v)
    assert pairwise_sum([pairwise_sum(v[:4]), pairwise_sum(v[4:])]) == whole


def test_global_reduce_ops():
    assert global_reduce([3.0, -1.0, 2.0], "min") == -1.0
    assert global_reduce([3.0, -1.0, 2.0], "max") == 3.0
    assert global_reduce([1.0, 2.0, 3.0], "sum") == (1.0 + 2.0) + 3.0
    with pytest.raises(ValueError, match="unknown reduction"):
        global_reduce([1.0], "mean")


# --------------------------------------------------------------------------
# Halo exchange
# --------------------------------------------------------------------------


def assert_halos_match_global(engine, field, global_arr):
    """Every block halo cell that lies inside the domain equals the global value."""
    for blk, sub in zip(engine.partition.blocks, engine.locals):
        arr = getattr(sub, field)
        nr, nc = arr.shape
        for r in range(nr):
            for c in range(nc):
                gi = blk.row0 + r - GHOSTS
                gj = blk.col0 + c - GHOSTS
                if 0 <= gi < engine.template.nrows and 0 <= gj < engine.template.ncols:
                    assert arr[r, c] == global_arr[gi, gj], (blk, r, c)


def test_halo_exchange_reproduces_global_fields():
    # Distinct per-cell values catch any mis-sliced strip, including the
    # diagonal corners carried by the second exchange phase.
    st = random_wet_state(10, 10, seed=23)
    st.h[INT] = np.arange(100, dtype=np.float64).reshape(10, 10) + 1000.0
    with BlockEngine(st, PARAMS, BoundarySpec.walls(), nblocks=4) as eng:
        eng._exchange(["h"])
        assert_halos_match_global(eng, "h", st.h[INT])
        # topography was exchanged once at construction
        assert_halos_match_global(eng, "z", st.z[INT])


# --------------------------------------------------------------------------
# Per-block boundary restriction
# --------------------------------------------------------------------------


def test_block_boundary_seams_and_mask_clipping():
    part = make_partition(10, 10, 4)  # 2x2 blocks of 5x5
    spec = BoundarySpec(wall(), free_outflow(), wall(),
                        discharge(lambda t: 2.0, [1, 7]))
    nw = _block_boundary(spec, part, 0, 0, part.blocks[0])
    assert nw.north.kind is EdgeKind.WALL
    assert nw.south is None and nw.east is None
    np.testing.assert_array_equal(nw.west.mask, [1])
    assert nw.west.mask_total == 2  # global count survives clipping
    sw = _block_boundary(spec, part, 1, 0, part.blocks[part.index(1, 0)])
    np.testing.assert_array_equal(sw.west.mask, [2])  # global row 7 -> local 2
    assert sw.south.kind is EdgeKind.FREE_OUTFLOW
    se = _block_boundary(spec, part, 1, 1, part.blocks[part.index(1, 1)])
    assert se.west is None and se.north is None
    assert se.east.kind is EdgeKind.WALL


def test_block_boundary_empty_mask_becomes_wall():
    part = make_partition(10, 10, 4)
    spec = BoundarySpec(wall(), wall(), wall(), discharge(lambda t: 2.0, [1]))
    sw = _block_boundary(spec, part, 1, 0, part.blocks[part.index(1, 0)])
    assert sw.west.kind is EdgeKind.WALL


# --------------------------------------------------------------------------
# Engine vs serial stepping
# --------------------------------------------------------------------------


def run_serial(st, spec, steps):
    t = 0.0
    diags = []
    for _ in range(steps):
        d = rk2_step(st, PARAMS, spec, t)
        t += d.dt
        diags.append(d)
    return st, diags


def run_engine(st, spec, steps, nblocks):
    t = 0.0
    diags = []
    with BlockEngine(st, PARAMS, spec, nblocks=nblocks) as eng:
        for _ in range(steps):
            d = eng.step(t)
            t += d.dt
            diags.append(d)
        return eng.gather(), diags


@pytest.mark.parametrize("nblocks", [1, 4, 6])
def test_engine_matches_serial_bitwise(nblocks):
    # Uneven 9x7 tiling with mixed boundaries; fields and per-step
    # diagnostics must be identical to the serial solver for any tiling.
    spec = BoundarySpec(wall(), wall(), free_outflow(),
                        discharge(lambda t: 0.4 + 0.1 * t, [2, 3, 4]))
    serial, ds = run_serial(random_wet_state(9, 7, seed=24), spec, 6)
    blocked, db = run_engine(random_wet_state(9, 7, seed=24), spec, 6, nblocks)
    np.testing.assert_array_equal(blocked.h[INT], serial.h[INT])
    np.testing.assert_array_equal(blocked.hu[INT], serial.hu[INT])
    np.testing.assert_array_equal(blocked.hv[INT], serial.hv[INT])
    for s, b in zip(ds, db):
        assert b.dt == s.dt
        assert b.max_wave_speed == s.max_wave_speed
        assert b.inflow_volume == s.inflow_volume
        assert b.outflow_volume == s.outflow_volume
        assert b.critical_inflow_fallbacks == s.critical_inflow_fallbacks
        assert b.min_h == s.min_h


def test_engine_total_volume_matches_gather():
    st = random_wet_state(9, 7, seed=25)
    with BlockEngine(st, PARAMS, BoundarySpec.walls(), nblocks=4) as eng:
        assert eng.total_volume() == pytest.approx(st.total_volume(), rel=1e-12)


def test_engine_compute_dt_matches_serial():
    from swflood.solver import compute_dt
    from swflood.boundary import apply_boundaries

    st = random_wet_state(9, 7, seed=26)
    spec = BoundarySpec.walls()
    with BlockEngine(st.copy(), PARAMS, spec, nblocks=4) as eng:
        dt_blocked = eng.compute_dt(0.0)
    apply_boundaries(st, spec, 0.0, PARAMS)
    assert dt_blocked == compute_dt(st, PARAMS)


def test_one_block_engine_steps_the_given_state_in_place(monkeypatch):
    def no_cpu_count():
        raise AssertionError("a one-block engine sized a worker pool")

    monkeypatch.setattr(partition.os, "cpu_count", no_cpu_count)
    st = random_wet_state(9, 7, seed=27)
    before = st.h.copy()
    with BlockEngine(st, PARAMS, BoundarySpec.walls()) as eng:
        eng.step(0.0)
        out = eng.gather()
    assert not np.array_equal(st.h[INT], before[INT])
    for name in ("h", "hu", "hv"):
        np.testing.assert_array_equal(getattr(out, name)[INT], getattr(st, name)[INT])
    for name in ("h", "hu", "hv", "z", "wall_mask"):
        assert not np.shares_memory(getattr(out, name), getattr(st, name)), name

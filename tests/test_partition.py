"""Tests of the engine that steps one state over row strips on worker threads."""

import sys
import threading
import time

import numpy as np
import pytest

from swflood import partition, solver
from swflood.boundary import BoundarySpec, discharge, free_outflow, wall
from swflood.partition import BlockEngine, rk2_step
from swflood.state import INT, PhysicalParams, State
from scenes import march

PARAMS = PhysicalParams()


def random_wet_state(nrows, ncols, seed=0, dx=1.0):
    rng = np.random.default_rng(seed)
    st = State(nrows, ncols, dx, dx, rng.uniform(0.0, 0.2, size=(nrows, ncols)))
    st.h[INT] = rng.uniform(0.5, 1.5, size=(nrows, ncols))
    st.hu[INT] = rng.uniform(-0.5, 0.5, size=(nrows, ncols))
    st.hv[INT] = rng.uniform(-0.5, 0.5, size=(nrows, ncols))
    return st


@pytest.mark.parametrize("nrows, ncols, nblocks, fragment", [
    (4, 4, 0, "at least one block"),
])
def test_partition_errors(nrows, ncols, nblocks, fragment):
    with pytest.raises(ValueError, match=fragment):
        BlockEngine(State(nrows, ncols, 1.0, 1.0, np.zeros((nrows, ncols))),
                    PARAMS, BoundarySpec.walls(), nblocks=nblocks)


# --------------------------------------------------------------------------
# Engine vs serial stepping
# --------------------------------------------------------------------------


def mixed_run(nblocks=0, steps=6):
    """A wet 9x7 state under mixed boundaries, stepped by ``march``."""
    spec = BoundarySpec(wall(), wall(), free_outflow(),
                        discharge(lambda t: 0.4 + 0.1 * t, [2, 3, 4]))
    return march(random_wet_state(9, 7, seed=24), PARAMS, spec, steps, nblocks)


def assert_same_run(engine_run, serial_run):
    blocked, db = engine_run
    serial, ds = serial_run
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


@pytest.mark.parametrize("nblocks", [1, 2, 4, 6, 9])
def test_engine_matches_serial_bitwise(nblocks):
    # Mixed boundaries; fields and per-step diagnostics must be identical to
    # the serial solver for any thread count.
    serial = mixed_run()
    assert_same_run(mixed_run(nblocks), serial)


@pytest.mark.parametrize("nthreads", [1, 2, 4, 9])
def test_engine_matches_serial_bitwise_on_one_row_strips(nthreads, monkeypatch):
    # Nine one-row strips per stage, more than the threads at every count,
    # against a serial run that evaluates each stage in one strip.
    serial = mixed_run()
    monkeypatch.setattr(solver, "_STRIP_CELLS", 1)
    assert solver._strips(9, 11) == [(r, r + 1) for r in range(9)]
    assert_same_run(mixed_run(nthreads), serial)


def test_more_threads_than_cores_with_fast_switching_keep_the_bits(monkeypatch):
    # Eight workers on one-row strips, handing the interpreter lock over every
    # microsecond: a strip that read a row another strip had already updated,
    # or a result reduced out of order, changes the fields.
    serial = mixed_run()
    monkeypatch.setattr(solver, "_STRIP_CELLS", 1)
    monkeypatch.setattr(partition.os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.perf_counter()
        engine_run = mixed_run(8)
    finally:
        sys.setswitchinterval(interval)
    assert time.perf_counter() - started < 60.0
    assert_same_run(engine_run, serial)


def test_engine_compute_dt_matches_serial():
    from swflood.solver import compute_dt
    from swflood.boundary import apply_boundaries

    st = random_wet_state(9, 7, seed=26)
    spec = BoundarySpec.walls()
    with BlockEngine(st.copy(), PARAMS, spec, nblocks=4) as eng:
        dt_blocked = eng.compute_dt(0.0)
    apply_boundaries(st, spec, 0.0, PARAMS)
    assert dt_blocked == compute_dt(st, PARAMS)


def test_engine_sizes_its_pool_by_the_cpu_count_and_starts_no_thread(monkeypatch):
    sized = []

    class StubPool:
        def __init__(self, max_workers):
            sized.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self):
            sized.append("shutdown")

    monkeypatch.setattr(partition, "ThreadPoolExecutor", StubPool)
    monkeypatch.setattr(partition.os, "cpu_count", lambda: 3)
    before = threading.active_count()
    st = random_wet_state(9, 7, seed=28)
    with BlockEngine(st, PARAMS, BoundarySpec.walls(), nblocks=10**6) as eng:
        eng.step(0.0)
        assert threading.active_count() == before
    assert sized == [3, "shutdown"]
    monkeypatch.setattr(partition.os, "cpu_count", lambda: None)
    BlockEngine(st, PARAMS, BoundarySpec.walls(), nblocks=5).close()
    assert sized[-2:] == [1, "shutdown"]


def test_one_strip_phases_run_on_the_calling_thread(monkeypatch):
    # The 9x7 box is one strip, so a 2-thread engine submits no phase to its
    # pool and keeps the serial bits; with one-row strips every phase goes
    # through the pool.
    mapped = []

    class StubPool:
        def __init__(self, max_workers):
            pass

        def map(self, fn, items):
            mapped.append(len(items))
            return map(fn, items)

        def shutdown(self):
            pass

    monkeypatch.setattr(partition, "ThreadPoolExecutor", StubPool)
    serial = mixed_run()
    assert solver._strips(9, 11) == [(0, 9)]
    assert_same_run(mixed_run(2), serial)
    assert mapped == []
    monkeypatch.setattr(solver, "_STRIP_CELLS", 1)
    mixed_run(2, steps=1)
    assert mapped == [9] * 4


def test_multi_thread_engine_steps_the_given_state_in_place():
    st = random_wet_state(9, 7, seed=29)
    ref = random_wet_state(9, 7, seed=29)
    with BlockEngine(st, PARAMS, BoundarySpec.walls(), nblocks=2) as eng:
        d = eng.step(0.0)
        out = eng.gather()
    rk2_step(ref, PARAMS, BoundarySpec.walls(), 0.0, d.dt)
    for name in ("h", "hu", "hv"):
        np.testing.assert_array_equal(getattr(st, name), getattr(ref, name))
        np.testing.assert_array_equal(getattr(out, name)[INT], getattr(st, name)[INT])
        assert not np.shares_memory(getattr(out, name), getattr(st, name)), name


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


# --------------------------------------------------------------------------
# Cells with dx != dy
# --------------------------------------------------------------------------


def channel_with_aspect(seed, transposed):
    """A 14x11 state with dx = 1 and dy = 0.5, wet over a random patch and
    fed from the west, drained to the east; or its transpose, with dx = 0.5
    and dy = 1, fed from the north and drained to the south."""
    rng = np.random.default_rng(seed)
    nrows, ncols = 14, 11
    z = rng.uniform(0.0, 0.05, size=(nrows, ncols)) + 0.01 * (ncols - np.arange(ncols))
    wet = rng.random((nrows, ncols)) < 0.6
    h = np.where(wet, rng.uniform(0.01, 0.4, size=(nrows, ncols)), 0.0)
    hu = np.where(wet, rng.uniform(-0.2, 0.2, size=(nrows, ncols)) * h, 0.0)
    hv = np.where(wet, rng.uniform(-0.2, 0.2, size=(nrows, ncols)) * h, 0.0)
    inflow = discharge(lambda t: 0.3 + 0.05 * t, [4, 5, 6, 9])
    if transposed:
        st = State(ncols, nrows, 0.5, 1.0, z.T)
        st.h[INT], st.hu[INT], st.hv[INT] = h.T, hv.T, hu.T
        return st, BoundarySpec(inflow, free_outflow(), wall(), wall())
    st = State(nrows, ncols, 1.0, 0.5, z)
    st.h[INT], st.hu[INT], st.hv[INT] = h, hu, hv
    return st, BoundarySpec(wall(), wall(), free_outflow(), inflow)


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("friction", [
    PhysicalParams(), PhysicalParams(manning_n=0.03),
    PhysicalParams(manning_n=0.03, friction_full_velocity=True),
])
def test_transposed_cells_step_to_the_transposed_fields(seed, friction, monkeypatch):
    # Swapping the axes swaps dx with dy, hu with hv and each edge with its
    # mirror across the diagonal; every kernel sees the same numbers in
    # another sweep, so the fields transpose bit for bit.
    monkeypatch.setattr(solver, "_STRIP_CELLS", 40)
    for nblocks in (1, 2):
        state, spec = channel_with_aspect(seed, transposed=False)
        a, da = march(state, friction, spec, 25, nblocks)
        state, spec = channel_with_aspect(seed, transposed=True)
        b, db = march(state, friction, spec, 25, nblocks)
        for this, other in ((a.h, b.h), (a.hu, b.hv), (a.hv, b.hu)):
            assert this[INT].T.tobytes() == np.ascontiguousarray(other[INT]).tobytes()
        assert [d.dt for d in da] == [d.dt for d in db]
        assert [d.inflow_volume for d in da] == [d.inflow_volume for d in db]
        assert [d.outflow_volume for d in da] == [d.outflow_volume for d in db]
        assert sum(d.inflow_volume for d in da) > 0.0
        assert sum(d.outflow_volume for d in da) > 0.0

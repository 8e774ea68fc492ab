"""The kernel workspace: the step reads no cell it did not write, keeps no
state between states, and allocates little once warm.

The sweep kernels write every temporary into views of a per-thread
kernels.Workspace that outlives each strip, stage and step.  A view is
handed out uninitialised, so a kernel that read a cell it had not written
would read whatever the last strip left there.  The tests below fill every
view with NaN before handing it out; the pinned digests must not move.
"""

import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swflood import kernels, solver, validate
from swflood.boundary import BoundarySpec
from swflood.partition import BlockEngine, rk2_step
from swflood.solver import max_wave_speed
from swflood.state import GHOSTS, INT, PhysicalParams, State
from scenes import march
from test_partition import PARAMS, assert_same_run, mixed_run, random_wet_state
from test_reference_step import cases, engine_run, reference_run
from test_strips import DIGESTS, VARIANTS
from test_strips import run as strips_run

SETTINGS = [(1, 1), (1, 40), (2, 1), (2, 40)]  # (threads, _STRIP_CELLS)
IDS = [f"{n}thr-{c}cells" for n, c in SETTINGS]


@contextmanager
def poisoned_workspace(strip_cells):
    """Every workspace view starts as NaN (True for masks) while strips hold
    about ``strip_cells`` cells."""
    take = kernels.Workspace.take

    def poisoned(self, *args, **kwargs):
        views = take(self, *args, **kwargs)
        # With keep=, the last item is a mark, not a view.
        for view in views[:-1] if "keep" in kwargs else views:
            view.fill(np.nan if view.dtype == np.float64 else True)
        return views

    with patch.object(kernels.Workspace, "take", poisoned), \
            patch.object(solver, "_STRIP_CELLS", strip_cells):
        yield


@pytest.mark.parametrize("nthreads, strip_cells", SETTINGS, ids=IDS)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_strip_digests_hold_with_a_poisoned_workspace(variant, nthreads, strip_cells):
    with poisoned_workspace(strip_cells):
        assert strips_run(variant, nthreads) == DIGESTS[variant]


@pytest.mark.parametrize("nthreads, strip_cells", SETTINGS, ids=IDS)
def test_engine_matches_serial_with_a_poisoned_workspace(nthreads, strip_cells):
    serial = mixed_run()
    with poisoned_workspace(strip_cells):
        assert_same_run(mixed_run(nthreads), serial)


@settings(max_examples=25, deadline=None)
@given(cases())
def test_reference_step_holds_with_a_poisoned_workspace(case):
    expected = reference_run(case)
    for nthreads, strip_cells in SETTINGS:
        with poisoned_workspace(strip_cells):
            got = engine_run(replace(case, strip_cells=strip_cells), nthreads)
        assert got == expected, f"{nthreads} threads, {strip_cells} cells"


# --------------------------------------------------------------------------
# States stepped in turn
# --------------------------------------------------------------------------


def two_states():
    return random_wet_state(9, 7, seed=24), random_wet_state(5, 23, seed=7)


def fields(state):
    return [arr.tobytes() for arr in (state.h, state.hu, state.hv)]


@pytest.mark.parametrize("nthreads", [1, 2])
def test_states_stepped_in_turn_keep_their_own_bits(nthreads, monkeypatch):
    # Two shapes take different views of the same workspaces, and the first
    # state's strips run again after the second one's have used them.
    monkeypatch.setattr(solver, "_STRIP_CELLS", 40)
    spec = BoundarySpec.walls()
    alone = [march(state, PARAMS, spec, 6) for state in two_states()]
    states = two_states()
    engines = [BlockEngine(state, PARAMS, spec, nblocks=nthreads) for state in states]
    diags = [[], []]
    t = [0.0, 0.0]
    try:
        for _ in range(6):
            for k, engine in enumerate(engines):
                diags[k].append(engine.step(t[k]))
                t[k] += diags[k][-1].dt
    finally:
        for engine in engines:
            engine.close()
    for state, run, (single, single_diags) in zip(states, diags, alone):
        assert fields(state) == fields(single)
        assert [d.dt for d in run] == [d.dt for d in single_diags]
        assert [d.min_h for d in run] == [d.min_h for d in single_diags]


# --------------------------------------------------------------------------
# The wave speed without compacting copies
# --------------------------------------------------------------------------


def compacting_wave_speed(state, params, box):
    """The wave speed over the wet cells of ``box``, copied out first."""
    if box is None:
        return 0.0
    r0, r1, c0, c1 = box
    cells = (slice(r0, r1 + 2 * GHOSTS), slice(c0, c1 + 2 * GHOSTS))
    h = state.h[cells]
    wet = h > params.h_dry
    if not wet.any():
        return 0.0
    hw = h[wet]
    q = np.maximum(np.abs(state.hu[cells][wet]), np.abs(state.hv[cells][wet]))
    return float((q / hw + np.sqrt(params.g * hw)).max())


H_DRY = PhysicalParams().h_dry
DEPTHS = st.one_of(
    st.sampled_from([0.0, -0.0, H_DRY, H_DRY * (1 + 1e-9), -1e-13, np.nan]),
    st.floats(-1.0, 1e3),
)
DISCHARGES = st.one_of(st.sampled_from([0.0, -0.0, np.nan]), st.floats(-1e3, 1e3))


@settings(max_examples=300, deadline=None)
@given(
    nrows=st.integers(1, 6), ncols=st.integers(1, 6), data=st.data(),
)
def test_wave_speed_equals_the_compacting_form(nrows, ncols, data):
    state = State(nrows, ncols, 1.0, 1.0, np.zeros((nrows, ncols)))
    shape = state.h.shape
    for arr, values in ((state.h, DEPTHS), (state.hu, DISCHARGES), (state.hv, DISCHARGES)):
        arr[...] = np.array(data.draw(st.lists(values, min_size=arr.size,
                                               max_size=arr.size))).reshape(shape)
    r0 = data.draw(st.integers(0, nrows - 1))
    c0 = data.draw(st.integers(0, ncols - 1))
    box = data.draw(st.one_of(st.none(), st.tuples(
        st.just(r0), st.integers(r0 + 1, nrows), st.just(c0), st.integers(c0 + 1, ncols))))
    got = max_wave_speed(state, PARAMS, box)
    want = compacting_wave_speed(state, PARAMS, box)
    assert (np.isnan(got) and np.isnan(want)) or got.hex() == want.hex()


# --------------------------------------------------------------------------
# Allocation of a warm step
# --------------------------------------------------------------------------

# Bytes a warm rk2_step of the wet 3x800 Stoker strip may hold at once: 16
# interior planes of 3 x 800 float64 cells.  It holds about 11.7 (226 kB):
# the whole-box residual arrays and the saved copies of U^n, 3 planes each,
# then the edge flux lines and the masks of the active box.  A step that
# builds its kernel temporaries anew holds about 58 planes (1.11 MB).
WARM_STEP_PEAK = 16 * 3 * 800 * 8


def test_a_warm_step_allocates_little():
    state, _ = validate.strip_state(validate.build_case("stoker"), 800)
    spec = BoundarySpec.walls()
    params = validate.PARAMS
    t = 0.0
    for _ in range(2):
        t += rk2_step(state, params, spec, t).dt
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rk2_step(state, params, spec, t)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= WARM_STEP_PEAK

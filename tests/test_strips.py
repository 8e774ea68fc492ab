"""Pins of the row-strip evaluation of the Euler-plus-friction stage.

A stage evaluates its active box in strips of rows sized to stay in cache,
one task per strip on the engine's worker threads.  Every kernel is
elementwise, so a strip gives the same bits as the whole box.  The digests
below were recorded with a solver that evaluated each stage on the whole box
at once; the strips must reproduce them bitwise for any thread count, any
strip size and both friction couplings.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from swflood import solver
from swflood.boundary import BoundarySpec, free_outflow, wall
from swflood.solver import NumericalAbort, euler_friction_stage
from swflood.state import INT, PhysicalParams, State
from scenes import field_digest, march

STEPS = 12
# Three strips of 128, 128 and 44 rows (checked by
# test_the_cases_span_several_strips).
SHAPE = (300, 124)
# Ten strips of at most 32 rows: more strips than threads at every count.
SMALL_STRIP_CELLS = 32 * (SHAPE[1] + 4)
THREADS = [1, 2, 4, 9]


def dam_with_dry_band():
    """Wet dam break on a rough bed, tall enough for several strips.

    A dry band crosses the grid, and the first strip seam, between the two
    pools.  The north, south and east edges are open, so the edge fluxes of
    the first and last strip and of every strip's ends feed the boundary
    volumes.
    """
    rng = np.random.default_rng(41)
    z = rng.uniform(0.0, 0.02, size=SHAPE)
    st = State(*SHAPE, 1.0, 1.0, z)
    h = st.h[INT]
    h[:90] = 0.4
    h[90:] = 0.1
    h[122:134] = 0.0
    st.hu[INT][:] = np.where(h > 0, rng.uniform(-0.02, 0.02, size=h.shape), 0.0)
    st.hv[INT][:] = np.where(h > 0, rng.uniform(-0.02, 0.02, size=h.shape), 0.0)
    return st, BoundarySpec(free_outflow(), free_outflow(), free_outflow(), wall())


DIGESTS = {  # after STEPS steps, recorded before the stage was evaluated in strips
    "per_component": "719adf9e675869bd9995c3b4209c75f4ea5900d65d62df3b9fa29c34ac888f25",
    "full_velocity": "f754d89c08ae6c34facc7821e5a6637b98c980d4fbb138b3e27321eaa2f7a3e9",
}
VARIANTS = {  # PhysicalParams overrides on top of Manning 0.03
    "per_component": {},
    "full_velocity": {"friction_full_velocity": True},
}


def params(variant="per_component"):
    return PhysicalParams(manning_n=0.03, **VARIANTS[variant])


def run(variant, nblocks):
    state, spec = dam_with_dry_band()
    return field_digest(*march(state, params(variant), spec, STEPS, nblocks))


def test_the_cases_span_several_strips():
    # The stage's box is the whole grid here: every cell is live.
    nrows, ncols = SHAPE
    width = ncols + 4
    assert solver._strips(nrows, width) == [(0, 128), (128, 256), (256, 300)]
    assert solver._strips(nrows // 2, width) == [(0, 128), (128, 150)]


@pytest.mark.parametrize("nblocks", [0, *THREADS],
                         ids=["serial", *(f"{n}blk" for n in THREADS)])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_strip_stage_reproduces_the_whole_box_digest(variant, nblocks):
    assert run(variant, nblocks) == DIGESTS[variant]


@pytest.mark.parametrize("nthreads", THREADS)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_small_strips_reproduce_the_whole_box_digest(variant, nthreads, monkeypatch):
    monkeypatch.setattr(solver, "_STRIP_CELLS", SMALL_STRIP_CELLS)
    assert len(solver._strips(SHAPE[0], SHAPE[1] + 4)) == 10
    assert run(variant, nthreads) == DIGESTS[variant]


def fake_residual(l_h):
    """A residual_arrays stand-in that returns ``l_h`` and zero momentum terms."""

    def residual(h, hu, hv, z, dx, dy, prm, map=map):
        rows, cols = l_h.shape
        edges = solver.StageFluxes(west=np.zeros(rows), east=np.zeros(rows),
                                   north=np.zeros(cols), south=np.zeros(cols))
        return l_h.copy(), np.zeros_like(l_h), np.zeros_like(l_h), edges

    return residual


ABORTS = {  # recorded with the whole-box stage
    "later_strip_deeper": "negative depth -1.000e-01 at cell (200, 7) after hyperbolic stage",
    "tie_across_strips": "negative depth -1.000e-05 at cell (20, 5) after hyperbolic stage",
    "nan_after_negative": "non-finite field values after hyperbolic stage",
}


def bad_cell_state(case):
    st = State(*SHAPE, 1.0, 1.0, np.zeros(SHAPE))
    st.h[INT][:] = 0.1
    l_h = np.zeros(SHAPE)
    l_h[20, 5] = -0.10001
    if case == "later_strip_deeper":
        l_h[200, 7] = -0.2
    elif case == "tie_across_strips":
        l_h[290, 1] = -0.10001
    else:
        l_h[280, 40] = np.nan
    return st, l_h


@pytest.mark.parametrize("case", sorted(ABORTS))
def test_a_bad_cell_in_a_later_strip_aborts_with_the_whole_box_message(case, monkeypatch):
    st, l_h = bad_cell_state(case)
    monkeypatch.setattr(solver, "residual_arrays", fake_residual(l_h))
    with pytest.raises(NumericalAbort) as info:
        euler_friction_stage(st, params(), 1.0, solver.active_box(st))
    assert str(info.value) == ABORTS[case]


@pytest.mark.parametrize("case", sorted(ABORTS))
def test_a_bad_cell_aborts_with_the_whole_box_message_on_two_threads(case, monkeypatch):
    st, l_h = bad_cell_state(case)
    monkeypatch.setattr(solver, "residual_arrays", fake_residual(l_h))
    with ThreadPoolExecutor(max_workers=2) as pool:
        with pytest.raises(NumericalAbort) as info:
            euler_friction_stage(st, params(), 1.0, solver.active_box(st), pool.map)
    assert str(info.value) == ABORTS[case]


def test_a_failing_strip_raises_only_after_every_strip_task_returned(monkeypatch):
    # The first strip fails at once while the last one is still working; the
    # stage must not raise while that strip can still write to the state.
    st, l_h = bad_cell_state("later_strip_deeper")
    l_h[20, 5] = np.nan
    monkeypatch.setattr(solver, "residual_arrays", fake_residual(l_h))
    returned = []
    lock = threading.Lock()

    with ThreadPoolExecutor(max_workers=2) as pool:
        def slow_last_map(fn, strips):
            strips = list(strips)

            def task(strip):
                try:
                    return fn(strip)
                finally:
                    if strip == strips[-1]:
                        time.sleep(0.3)
                    with lock:
                        returned.append(strip)

            return pool.map(task, strips)

        with pytest.raises(NumericalAbort, match="non-finite"):
            euler_friction_stage(st, params(), 1.0, solver.active_box(st), slow_last_map)
        with lock:
            assert len(returned) == 3


def test_a_roundoff_clamp_in_one_strip_clamps_the_whole_box(monkeypatch):
    # The whole-box clamp runs np.maximum(h, 0) over every cell once any depth
    # is slightly negative, which turns -0.0 depths in other strips into +0.0.
    st = State(*SHAPE, 1.0, 1.0, np.zeros(SHAPE))
    st.h[INT][:] = 0.1
    st.h[INT][290, 3] = -0.0
    l_h = np.zeros(SHAPE)
    l_h[20, 5] = -0.1 - 5e-13
    l_h[290, 3] = -0.0
    monkeypatch.setattr(solver, "residual_arrays", fake_residual(l_h))
    edges = euler_friction_stage(st, params(), 1.0, solver.active_box(st))
    assert -1e-12 < edges.min_h < 0.0
    assert st.h[INT][20, 5] == 0.0 and not np.signbit(st.h[INT][20, 5])
    assert st.h[INT][290, 3] == 0.0 and not np.signbit(st.h[INT][290, 3])

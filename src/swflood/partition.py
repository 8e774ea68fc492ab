"""The time step: worker threads over row strips of one state.

BlockEngine.step is the package's one time step, and rk2_step is that step
on one thread.  The engine advances the caller's State in place for any
thread count: every stage fills the ghosts once on the whole state, then
solver.euler_friction_stage runs its two phases, the residual of each row
strip and then the update, friction and dry reset of each strip, through
the engine's order-preserving map.  Per-strip results are reduced in strip
order after every task of a phase has returned, so the stepped fields and
diagnostics are bitwise identical for any thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .boundary import BoundarySpec, apply_boundaries
from .solver import (
    StepDiagnostics,
    accumulate_edge_volumes,
    active_box,
    box_cells,
    combine_heun,
    compute_dt,
    dt_from_wave_speed,
    euler_friction_stage,
    max_wave_speed,
)
from .state import PhysicalParams, State


class BlockEngine:
    """Steps one state in place, its stage strips spread over ``nblocks`` threads.

    With one thread the strips run in order on the calling thread, with no
    worker pool and no os.cpu_count() call; rk2_step is that step.
    With more, a pool of min(nblocks, os.cpu_count()) threads takes the
    strips of each phase as a work list, so a strip that is wet costs its
    share and a dry region costs nothing on any thread.  Each stage advances
    only the active box of the state (see solver.active_box), evaluated in
    cache-sized row strips (see the solver module docstring); the kernels
    are elementwise and every reduction runs in strip order, so the strips
    give the same bits as one pass over the box, for any thread count.
    """

    def __init__(self, state: State, params: PhysicalParams, spec: BoundarySpec,
                 nblocks: int = 1):
        if nblocks < 1:
            raise ValueError(f"need at least one block, got {nblocks}")
        self.state = state
        self.params = params
        self.spec = spec
        # The states this engine steps: always the one given.  The benchmark
        # tracer tags each engine with the states listed here.
        self.locals = [state]
        self._pool = (ThreadPoolExecutor(max_workers=min(nblocks, os.cpu_count() or 1))
                      if nblocks > 1 else None)
        self._map = map if self._pool is None else self._pool.map

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _fill(self, t: float, diag: StepDiagnostics) -> None:
        diag.critical_inflow_fallbacks += apply_boundaries(self.state, self.spec, t,
                                                           self.params)

    def _stage(self, dt: float, diag: StepDiagnostics, box) -> None:
        state = self.state
        edges = euler_friction_stage(state, self.params, dt, box, self._map)
        diag.min_h = min(diag.min_h, edges.min_h)
        accumulate_edge_volumes(diag, edges, state.dx, state.dy, 0.5 * dt)

    def compute_dt(self, t: float) -> float:
        """CFL time step at time t: solver.compute_dt after a ghost fill at t."""
        apply_boundaries(self.state, self.spec, t, self.params)
        return compute_dt(self.state, self.params)

    def step(self, t: float, dt: float | None = None) -> StepDiagnostics:
        """One Heun step of the state.

        Each stage refills the boundary ghosts, then advances the state
        through solver.euler_friction_stage.  The ghosts left behind are
        those of the last stage fill.

        Only the wet boxes are stepped.  B1, the active box after the fill
        at t, bounds the wave-speed reduction and is stage 1's box: the
        stage refills the same ghosts, so the box stands (on a grid thinner
        than the ghost layers, the refill can only leave fewer cells live,
        and a box larger than needed gives the same fields).  U^n is saved
        over B1 only.
        Stage 2's box B2, found after the fill at t + dt, may reach beyond
        B1; the saved region then grows to the bounding box of both, and the
        new cells are copied from the state, which stage 1 did not change
        there.  The Heun average and the final depth minimum cover that
        region (see solver.combine_heun), and diag.region reports it.
        """
        params, state = self.params, self.state
        apply_boundaries(state, self.spec, t, params)
        box = active_box(state)
        speed = max_wave_speed(state, params, box)
        if dt is None:
            dt = dt_from_wave_speed(speed, state.dx, state.dy, params)
        diag = StepDiagnostics(dt=dt, max_wave_speed=speed, min_h=np.inf)
        region, saved = box, _saved(state, box)
        self._fill(t, diag)
        self._stage(dt, diag, box)
        self._fill(t + dt, diag)
        box = active_box(state)
        region, saved = _grow(state, region, saved, box)
        self._stage(dt, diag, box)
        region, final = combine_heun(state, saved, region, params)
        diag.min_h = min(diag.min_h, final)
        diag.region = region
        return diag

    def gather(self) -> State:
        """A copy of the current state."""
        return self.state.copy()


def rk2_step(state: State, params: PhysicalParams, boundary_spec: BoundarySpec,
             t: float, dt: float | None = None) -> StepDiagnostics:
    """One full time step of ``state``, in place: a one-thread BlockEngine step.

    Boundaries are re-applied before each residual.  A flat lake at rest is a
    bitwise fixed point.
    """
    return BlockEngine(state, params, boundary_spec).step(t, dt)


def _saved(state: State, box):
    """Copies of h, hu and hv over the interior ``box``; None for no box."""
    if box is None:
        return None
    cells = box_cells(box)
    return state.h[cells].copy(), state.hu[cells].copy(), state.hv[cells].copy()


def _grow(state: State, region, saved, box):
    """``region`` grown to hold ``box``, with ``saved`` extended to match.

    Cells outside ``region`` still hold U^n, so the new ones are copied from
    the state.
    """
    if box is None:
        return region, saved
    if region is None:
        return box, _saved(state, box)
    r0, r1, c0, c1 = region
    grown = (min(r0, box[0]), max(r1, box[1]), min(c0, box[2]), max(c1, box[3]))
    if grown == region:
        return region, saved
    wider = _saved(state, grown)
    old = (slice(r0 - grown[0], r1 - grown[0]), slice(c0 - grown[2], c1 - grown[2]))
    for dst, src in zip(wider, saved):
        dst[old] = src
    return grown, wider

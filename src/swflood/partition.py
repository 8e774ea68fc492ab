"""Shared-memory parallel stepping: worker threads over row strips of one state.

BlockEngine.step is the package's one time step, and the serial
solver.rk2_step is a one-thread step.  The engine advances the caller's
State in place for any thread count: every stage fills the ghosts once on
the whole state, then solver.euler_friction_stage runs its two phases, the
residual of each row strip and then the update, friction and dry reset of
each strip, through the engine's order-preserving map.  Per-strip results
are reduced in strip order after every task of a phase has returned, so the
stepped fields and diagnostics are bitwise identical for any thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .boundary import BoundarySpec, apply_boundaries
from .solver import (
    StepDiagnostics,
    accumulate_edge_volumes,
    combine_heun,
    dt_from_wave_speed,
    euler_friction_stage,
    max_wave_speed,
)
from .state import INT, PhysicalParams, State


class BlockEngine:
    """Steps one state in place, its stage strips spread over ``nblocks`` threads.

    With one thread the strips run in order on the calling thread, with no
    worker pool and no os.cpu_count() call; solver.rk2_step is that step.
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

    def _stage(self, t_stage: float, dt: float, diag: StepDiagnostics,
               weight: float) -> None:
        state = self.state
        diag.critical_inflow_fallbacks += apply_boundaries(state, self.spec, t_stage,
                                                           self.params)
        edges = euler_friction_stage(state, self.params, dt, self._map)
        diag.min_h = min(diag.min_h, edges.min_h)
        accumulate_edge_volumes(diag, edges, state.dx, state.dy, weight)

    def _fill_and_speed(self, t: float) -> float:
        """Refresh the ghosts for time t, then reduce the max wave speed.

        Ghost values are pure functions of the interior and t, so the first
        stage fill recomputes them bitwise identically; fallbacks counted
        here are discarded, since that fill counts them again.
        """
        apply_boundaries(self.state, self.spec, t, self.params)
        return max_wave_speed(self.state, self.params)

    def compute_dt(self, t: float) -> float:
        """CFL time step at time t."""
        return dt_from_wave_speed(
            self._fill_and_speed(t), self.state.dx, self.state.dy, self.params
        )

    def step(self, t: float, dt: float | None = None) -> StepDiagnostics:
        """One Heun step of the state.

        Each stage refills the boundary ghosts, then advances the state
        through solver.euler_friction_stage.  The ghosts left behind are
        those of the last stage fill.
        """
        params, state = self.params, self.state
        speed = self._fill_and_speed(t)
        if dt is None:
            dt = dt_from_wave_speed(speed, state.dx, state.dy, params)
        diag = StepDiagnostics(dt=dt, max_wave_speed=speed, min_h=np.inf)
        saved = (state.h[INT].copy(), state.hu[INT].copy(), state.hv[INT].copy())
        self._stage(t, dt, diag, 0.5 * dt)
        self._stage(t + dt, dt, diag, 0.5 * dt)
        combine_heun(state, *saved, params)
        diag.min_h = min(diag.min_h, float(state.h[INT].min()))
        return diag

    def gather(self) -> State:
        """A copy of the current state."""
        return self.state.copy()

"""Block partitioning for shared-memory parallel stepping.

The grid is tiled into nblocks rectangular blocks (sizes differing by at
most one cell per axis) choosing the factorization that minimizes halo
perimeter.  BlockEngine.step is the package's one time step: the serial
solver.rk2_step is a one-block step, which advances the given state in place.
Blocks exchange two-deep halos between stages; the stepped fields are
bitwise identical for any block count.  Reductions use exact min/max and a
fixed-topology pairwise sum so results do not depend on worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .boundary import BoundarySpec, EdgeCondition, EdgeKind, apply_boundaries
from .solver import (
    StageFluxes,
    StepDiagnostics,
    accumulate_edge_volumes,
    combine_heun,
    dt_from_wave_speed,
    euler_friction_stage,
    max_wave_speed,
)
from .state import GHOSTS, INT, PhysicalParams, State


@dataclass(frozen=True)
class Block:
    """Half-open global interior cell ranges of one block."""

    row0: int
    row1: int
    col0: int
    col1: int


@dataclass
class Partition:
    nrows: int
    ncols: int
    brows: int
    bcols: int
    blocks: list[Block]

    def index(self, bi: int, bj: int) -> int:
        return bi * self.bcols + bj


def _split(n: int, k: int) -> list[tuple[int, int]]:
    """k contiguous ranges covering n cells, sizes differing by at most one."""
    base, rem = divmod(n, k)
    bounds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < rem else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def make_partition(nrows: int, ncols: int, nblocks: int) -> Partition:
    """Tile the grid into nblocks near-square blocks minimizing halo perimeter."""
    if nblocks < 1:
        raise ValueError(f"need at least one block, got {nblocks}")
    if nblocks > nrows * ncols:
        raise ValueError(f"{nblocks} blocks exceed {nrows * ncols} cells")
    best = None
    for brows in range(1, nblocks + 1):
        if nblocks % brows:
            continue
        bcols = nblocks // brows
        if brows > nrows or bcols > ncols:
            continue
        cost = (nrows / brows + ncols / bcols, abs(brows - bcols), brows)
        if best is None or cost < best[0]:
            best = (cost, brows, bcols)
    if best is None:
        raise ValueError(f"cannot tile {nrows}x{ncols} into {nblocks} blocks")
    _, brows, bcols = best
    row_bounds = _split(nrows, brows)
    col_bounds = _split(ncols, bcols)
    blocks = [
        Block(r0, r1, c0, c1) for r0, r1 in row_bounds for c0, c1 in col_bounds
    ]
    return Partition(nrows, ncols, brows, bcols, blocks)


def pairwise_sum(values) -> float:
    """Fixed-topology pairwise sum: identical for any worker count."""
    vals = [float(v) for v in values]
    if not vals:
        return 0.0
    while len(vals) > 1:
        vals = [
            vals[i] + vals[i + 1] if i + 1 < len(vals) else vals[i]
            for i in range(0, len(vals), 2)
        ]
    return vals[0]


def global_reduce(partials, op: str) -> float:
    """Deterministic reduction over per-block partials (min, max or sum)."""
    if op == "min":
        return min(float(v) for v in partials)
    if op == "max":
        return max(float(v) for v in partials)
    if op == "sum":
        return pairwise_sum(partials)
    raise ValueError(f"unknown reduction {op!r}")


def _clip_mask(mask: np.ndarray, lo: int, hi: int) -> np.ndarray:
    sel = mask[(mask >= lo) & (mask < hi)]
    return sel - lo


def _block_boundary(spec: BoundarySpec, part: Partition, bi: int, bj: int,
                    blk: Block) -> BoundarySpec:
    """Restrict the global spec to one block; interior seams become None."""

    def restrict(cond: EdgeCondition | None, lo: int, hi: int) -> EdgeCondition | None:
        if cond is None or cond.kind is not EdgeKind.DISCHARGE:
            return cond
        local = _clip_mask(cond.mask, lo, hi)
        if len(local) == 0:
            return EdgeCondition(EdgeKind.WALL)
        return EdgeCondition(
            EdgeKind.DISCHARGE, discharge=cond.discharge,
            mask=local, mask_total=cond.mask_total,
        )

    return BoundarySpec(
        north=restrict(spec.north, blk.col0, blk.col1) if bi == 0 else None,
        south=restrict(spec.south, blk.col0, blk.col1) if bi == part.brows - 1 else None,
        east=restrict(spec.east, blk.row0, blk.row1) if bj == part.bcols - 1 else None,
        west=restrict(spec.west, blk.row0, blk.row1) if bj == 0 else None,
    )


class BlockEngine:
    """Drives rk2 stepping over a partitioned state with halo exchange.

    With one block the engine steps the given state in place, with no copy
    and no worker pool; solver.rk2_step is that step.  With more blocks each
    block steps its own copy of its part of the state, each stage runs per
    block on a worker pool with barriers at the halo exchanges, and gather
    assembles the result.  Each block advances only its own active box (see
    solver.active_box), found after the halo exchange and ghost fill, so a
    block that is dry with a dry halo costs a few reductions per stage and a
    dry block wets as soon as water reaches its halo.  Cells outside a box
    are left as they are, which is bitwise what evaluating them would give:
    their residual is -0.0 and their momentum is already +0.0.  Within its
    box a block is evaluated in cache-sized row strips (see the solver
    module docstring); the kernels are elementwise, so the strips give the
    same bits as one pass over the box, for any block count.
    """

    def __init__(self, state: State, params: PhysicalParams, spec: BoundarySpec,
                 nblocks: int = 1):
        self.params = params
        self.template = state
        self.partition = make_partition(state.nrows, state.ncols, nblocks)
        part = self.partition

        self.locals: list[State] = []
        self.specs: list[BoundarySpec] = []
        self._edge_weights = []
        for bi in range(part.brows):
            for bj in range(part.bcols):
                self._edge_weights.append(
                    dict(
                        north=bi == 0, south=bi == part.brows - 1,
                        west=bj == 0, east=bj == part.bcols - 1,
                    )
                )
                if nblocks == 1:
                    # The one block is the caller's state, stepped in place.
                    self.locals.append(state)
                    self.specs.append(spec)
                    continue
                blk = part.blocks[part.index(bi, bj)]
                sub = State(
                    blk.row1 - blk.row0, blk.col1 - blk.col0, state.dx, state.dy,
                    state.z[INT][blk.row0:blk.row1, blk.col0:blk.col1],
                )
                sub.h[INT] = state.h[INT][blk.row0:blk.row1, blk.col0:blk.col1]
                sub.hu[INT] = state.hu[INT][blk.row0:blk.row1, blk.col0:blk.col1]
                sub.hv[INT] = state.hv[INT][blk.row0:blk.row1, blk.col0:blk.col1]
                self.locals.append(sub)
                self.specs.append(_block_boundary(spec, part, bi, bj, blk))

        # Static topography halos; global-edge z ghosts are refilled per stage.
        self._exchange(["z"])
        self._pool = (ThreadPoolExecutor(max_workers=min(nblocks, os.cpu_count() or 1))
                      if nblocks > 1 else None)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _map(self, fn, *iterables):
        if self._pool is None:
            return [fn(*args) for args in zip(*iterables)]
        return list(self._pool.map(fn, *iterables))

    def _exchange(self, names: list[str]) -> None:
        """Two-deep halo exchange; rows first, then columns spanning halo rows."""
        part = self.partition
        g = GHOSTS

        def pair(bi, bj):
            return self.locals[part.index(bi, bj)]

        for name in names:
            # Phase 1: vertical neighbors exchange row strips (interior columns).
            for bi in range(part.brows - 1):
                for bj in range(part.bcols):
                    top = getattr(pair(bi, bj), name)
                    bot = getattr(pair(bi + 1, bj), name)
                    cols_t = slice(g, top.shape[1] - g)
                    cols_b = slice(g, bot.shape[1] - g)
                    bot[0:g, cols_b] = top[-2 * g:-g, cols_t]
                    top[-g:, cols_t] = bot[g:2 * g, cols_b]
            # Phase 2: horizontal neighbors exchange full-height column strips,
            # which carries the fresh vertical halos into the corners.
            for bi in range(part.brows):
                for bj in range(part.bcols - 1):
                    left = getattr(pair(bi, bj), name)
                    right = getattr(pair(bi, bj + 1), name)
                    right[:, 0:g] = left[:, -2 * g:-g]
                    left[:, -g:] = right[:, g:2 * g]

    def _stage(self, t_stage: float, dt: float, diag: StepDiagnostics,
               weight: float) -> None:
        self._exchange(["h", "hu", "hv"])

        def one(sub: State, spec: BoundarySpec, on_edge: dict):
            fb = apply_boundaries(sub, spec, t_stage, self.params)
            edges = euler_friction_stage(sub, self.params, dt)
            for edge in ("north", "south", "east", "west"):
                if not on_edge[edge]:
                    setattr(edges, edge, None)
            return fb, edges

        results = self._map(one, self.locals, self.specs, self._edge_weights)
        # Stitch per-block edge segments back into the global interface lines
        # so the volume sums reduce over the same arrays for any block count.
        merged = StageFluxes()
        spans = {"west": self.template.nrows, "east": self.template.nrows,
                 "north": self.template.ncols, "south": self.template.ncols}
        for blk, (fb, edges) in zip(self.partition.blocks, results):
            diag.critical_inflow_fallbacks += fb
            diag.min_h = min(diag.min_h, edges.min_h)
            for side in ("west", "east", "north", "south"):
                seg = getattr(edges, side)
                if seg is None:
                    continue
                line = getattr(merged, side)
                if line is None:
                    line = np.zeros(spans[side])
                    setattr(merged, side, line)
                lo, hi = ((blk.row0, blk.row1) if side in ("west", "east")
                          else (blk.col0, blk.col1))
                line[lo:hi] = seg
        accumulate_edge_volumes(diag, merged, self.template.dx, self.template.dy, weight)

    def _fill_and_speed(self, t: float) -> float:
        """Refresh halos and ghosts for time t, then reduce the max wave speed.

        Ghost values are pure functions of the owned interior and t, so the
        stage fills recompute them bitwise identically; fallbacks counted
        here are discarded, since the first stage fill counts them again.
        """
        self._exchange(["h", "hu", "hv"])

        def one(sub: State, spec: BoundarySpec) -> float:
            apply_boundaries(sub, spec, t, self.params)
            return max_wave_speed(sub, self.params)

        return global_reduce(self._map(one, self.locals, self.specs), "max")

    def compute_dt(self, t: float) -> float:
        """CFL time step at time t from the globally reduced wave speed."""
        return dt_from_wave_speed(
            self._fill_and_speed(t), self.template.dx, self.template.dy, self.params
        )

    def step(self, t: float, dt: float | None = None) -> StepDiagnostics:
        """One Heun step over all blocks, or one Euler stage if time_order = 1.

        Each stage exchanges halos, refills boundary ghosts, then advances
        every block through solver.euler_friction_stage.  The ghosts left
        behind are those of the last stage fill.
        """
        params = self.params
        speed = self._fill_and_speed(t)
        if dt is None:
            dt = dt_from_wave_speed(speed, self.template.dx, self.template.dy, params)
        diag = StepDiagnostics(dt=dt, max_wave_speed=speed, min_h=np.inf)

        if params.time_order == 1:
            self._stage(t, dt, diag, dt)
            return diag

        saved = [
            (sub.h[INT].copy(), sub.hu[INT].copy(), sub.hv[INT].copy())
            for sub in self.locals
        ]
        self._stage(t, dt, diag, 0.5 * dt)
        self._stage(t + dt, dt, diag, 0.5 * dt)
        self._map(
            lambda sub, prev: combine_heun(sub, prev[0], prev[1], prev[2], params),
            self.locals, saved,
        )
        for sub in self.locals:
            diag.min_h = min(diag.min_h, float(sub.h[INT].min()))
        return diag

    def gather(self) -> State:
        """Assemble the current global state; a copy even with one block."""
        out = self.template.copy()
        part = self.partition
        for blk, sub in zip(part.blocks, self.locals):
            sel = (slice(blk.row0, blk.row1), slice(blk.col0, blk.col1))
            out.h[INT][sel] = sub.h[INT]
            out.hu[INT][sel] = sub.hu[INT]
            out.hv[INT][sel] = sub.hv[INT]
        return out

    def total_volume(self) -> float:
        return global_reduce([sub.total_volume() for sub in self.locals], "sum")

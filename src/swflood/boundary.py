"""Boundary conditions: solid walls, free outflow, and discharge inflow.

Each domain edge carries exactly one condition.  Ghost cells (two layers)
are refilled from the current interior before every residual evaluation.
Discharge inflow imposes a target unit discharge through a subcritical
Riemann-invariant ghost state on the masked riverbed cells of one edge;
the rest of that edge behaves as a wall.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .raster import data_lines
from .state import GHOSTS, PhysicalParams, State

RESIDUAL_TOL = 1.0e-12
MAX_ITER = 100

EDGES = ("north", "south", "east", "west")


class EdgeKind(enum.Enum):
    WALL = "wall"
    FREE_OUTFLOW = "free_outflow"
    DISCHARGE = "discharge"


@dataclass
class EdgeCondition:
    kind: EdgeKind
    # Total discharge m^3/s as a function of time; DISCHARGE only.
    discharge: Callable[[float], float] | None = None
    # Sorted along-edge interior indices receiving the inflow; DISCHARGE only.
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.kind is EdgeKind.DISCHARGE:
            if self.discharge is None:
                raise ValueError("DISCHARGE edge needs a discharge function")
            if self.mask is None or len(self.mask) == 0:
                raise ValueError("DISCHARGE edge needs a non-empty riverbed mask")
            self.mask = np.unique(np.asarray(self.mask, dtype=np.int64))
        elif self.discharge is not None or self.mask is not None:
            raise ValueError(f"{self.kind.value} edge takes no discharge or mask")


def wall() -> EdgeCondition:
    return EdgeCondition(EdgeKind.WALL)


def free_outflow() -> EdgeCondition:
    return EdgeCondition(EdgeKind.FREE_OUTFLOW)


def discharge(q_of_t: Callable[[float], float], mask) -> EdgeCondition:
    return EdgeCondition(EdgeKind.DISCHARGE, discharge=q_of_t, mask=np.asarray(mask))


@dataclass
class BoundarySpec:
    """One condition per edge."""

    north: EdgeCondition
    south: EdgeCondition
    east: EdgeCondition
    west: EdgeCondition

    @classmethod
    def walls(cls) -> "BoundarySpec":
        return cls(wall(), wall(), wall(), wall())

    def edge(self, name: str) -> EdgeCondition:
        return getattr(self, name)


class InflowState(NamedTuple):
    h: float
    u: float
    critical: bool


def riemann_inflow(h_interior: float, u_interior: float, q_b: float, g: float) -> InflowState:
    """Ghost state (h_b, u_b) carrying unit discharge q_b into the domain.

    Velocities are in inward-normal coordinates.  The state satisfies

        u_b * h_b = q_b
        u_b - 2*sqrt(g*h_b) = u_interior - 2*sqrt(g*h_interior)

    (the outgoing characteristic invariant), solved by safeguarded Newton
    iteration on the monotone residual to 1e-12.  Zero discharge returns the
    interior depth at rest.  When the demanded discharge admits no
    subcritical state, the critical state (Froude = 1 at the same q_b) is
    returned with ``critical`` set.
    """
    if not 0.0 <= q_b < math.inf:
        raise ValueError(f"inflow discharge must be a finite non-negative number, got {q_b}")
    if q_b == 0.0:
        return InflowState(h_interior, 0.0, False)

    invariant = u_interior - 2.0 * math.sqrt(g * max(h_interior, 0.0))
    h_crit = (q_b * q_b / g) ** (1.0 / 3.0)

    def f(h):
        return q_b / h - 2.0 * math.sqrt(g * h) - invariant

    def df(h):
        return -q_b / (h * h) - math.sqrt(g / h)

    # f is strictly decreasing with f(0+) = +inf, so bracket, then refine with
    # Newton steps that fall back to bisection when they leave the bracket.
    lo = 0.5 * h_crit
    while f(lo) <= 0.0 and lo > 1e-300:
        lo *= 0.5
    hi = 2.0 * max(h_interior, h_crit)
    while f(hi) >= 0.0 and hi < 1e300:
        hi *= 2.0

    h = max(h_interior, h_crit)
    if not lo < h < hi:
        h = 0.5 * (lo + hi)
    for _ in range(MAX_ITER):
        fx = f(h)
        if abs(fx) <= RESIDUAL_TOL:
            break
        if fx > 0.0:
            lo = h
        else:
            hi = h
        h_new = h - fx / df(h)
        if not lo < h_new < hi:
            h_new = 0.5 * (lo + hi)
        h = h_new

    u = q_b / h
    if u > math.sqrt(g * h) * (1.0 + 1e-9):
        return InflowState(h_crit, q_b / h_crit, True)
    return InflowState(h, u, False)


def _oriented(arr: np.ndarray, edge: str) -> np.ndarray:
    """View with the given edge at oriented rows 0..1 and +row pointing inward."""
    if edge == "north":
        return arr
    if edge == "south":
        return arr[::-1]
    if edge == "west":
        return arr.T
    if edge == "east":
        return arr.T[::-1]
    raise ValueError(f"unknown edge {edge!r}")


def _fill_edge(state: State, edge: str, cond: EdgeCondition, t: float,
               params: PhysicalParams) -> int:
    """Fill both ghost layers of one edge; returns critical-fallback count."""
    h = _oriented(state.h, edge)
    qn = _oriented(state.hv if edge in ("north", "south") else state.hu, edge)
    qt = _oriented(state.hu if edge in ("north", "south") else state.hv, edge)
    z = _oriented(state.z, edge)
    # Stored values follow global axes; sign maps them to inward-normal ones.
    sign = 1.0 if edge in ("north", "west") else -1.0
    cols = slice(GHOSTS, h.shape[1] - GHOSTS)

    if cond.kind is EdgeKind.FREE_OUTFLOW:
        for arr in (h, qn, qt, z):
            arr[0, cols] = arr[2, cols]
            arr[1, cols] = arr[2, cols]
        return 0

    # WALL mirror, also the base fill for unmasked DISCHARGE cells.  On a grid
    # one cell thick, row 3 is the opposite edge's ghost row, so the outer
    # layer mirrors the last interior row instead.
    outer = GHOSTS + min(1, h.shape[0] - 2 * GHOSTS - 1)
    for arr in (h, z, qt):
        arr[1, cols] = arr[2, cols]
        arr[0, cols] = arr[outer, cols]
    qn[1, cols] = -qn[2, cols]
    qn[0, cols] = -qn[outer, cols]
    if cond.kind is EdgeKind.WALL:
        return 0

    width = state.dx if edge in ("north", "south") else state.dy
    q_total = cond.discharge(t)
    if not 0.0 <= q_total < math.inf:
        raise ValueError(f"non-finite or negative discharge {q_total} at t = {t}")
    q_b = q_total / (len(cond.mask) * width)

    fallbacks = 0
    for idx in cond.mask:
        j = GHOSTS + int(idx)
        h_i = h[2, j]
        s_i = sign * qn[2, j] / h_i if h_i > params.h_dry else 0.0
        ghost = riemann_inflow(h_i, s_i, q_b, params.g)
        if ghost.critical:
            fallbacks += 1
        h[0, j] = h[1, j] = ghost.h
        qn[0, j] = qn[1, j] = sign * ghost.h * ghost.u
        qt[0, j] = qt[1, j] = 0.0
        z[0, j] = z[1, j] = z[2, j]
    return fallbacks


def apply_boundaries(state: State, spec: BoundarySpec, t: float,
                     params: PhysicalParams) -> int:
    """Refill all ghost layers for time t; returns critical-fallback count."""
    fallbacks = 0
    for edge in EDGES:
        fallbacks += _fill_edge(state, edge, spec.edge(edge), t, params)
    return fallbacks


def read_riverbed_mask(source) -> list[tuple[int, int]]:
    """Read riverbed cells: one ``row col`` pair per line, # comments allowed."""
    cells = []
    for lineno, line in data_lines(source):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'row col', got {line!r}")
        try:
            cells.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"line {lineno}: bad cell index in {line!r}") from None
    return cells


def edge_mask_from_cells(cells, edge: str, nrows: int, ncols: int) -> np.ndarray:
    """Along-edge indices of riverbed cells, all of which must lie on the edge."""
    along = []
    for row, col in cells:
        if not (0 <= row < nrows and 0 <= col < ncols):
            raise ValueError(f"riverbed cell ({row}, {col}) is outside the grid")
        on_edge = {
            "north": row == 0,
            "south": row == nrows - 1,
            "west": col == 0,
            "east": col == ncols - 1,
        }[edge]
        if not on_edge:
            raise ValueError(f"riverbed cell ({row}, {col}) is not on the {edge} edge")
        along.append(col if edge in ("north", "south") else row)
    return np.unique(np.asarray(along, dtype=np.int64))

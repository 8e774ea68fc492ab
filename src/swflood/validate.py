"""Run the analytical reference cases through the production 2D solver.

Each 1D case runs as a 3-row, y-invariant strip with wall boundaries so the
exact code path of real simulations is exercised.  Reports give error norms
of h at the horizon and the observed convergence order against a half-
resolution run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .boundary import BoundarySpec, apply_boundaries
from .partition import rk2_step
from .solver import compute_dt
from .state import INT, PhysicalParams, State

STRIP_ROWS = 3


def _dam_break(name: str, length: float, h_l: float, h_r: float, horizon: float,
               solution, *args) -> analytic.AnalyticalCase:
    """Flat bed holding h_l left of mid-domain x0 and h_r right of it, exact
    in time as ``solution(x, t, x0, *args)``."""
    x0 = 0.5 * length

    def topography(x):
        return np.zeros_like(np.asarray(x, dtype=np.float64))

    def initial(x):
        x = np.asarray(x, dtype=np.float64)
        h = np.where(x < x0, h_l, h_r)
        return h, np.zeros_like(h)

    def exact(x, t):
        return solution(x, t, x0, *args)

    return analytic.AnalyticalCase(name, length, topography, initial, exact, horizon)


def ritter_case(h_l: float = 1.0, length: float = 10.0,
                g: float = 9.81) -> analytic.AnalyticalCase:
    """Dry dam break at mid-domain, run until the front crosses three
    quarters of the downstream reach."""
    # The reach downstream of x0 = 0.5 * length is 0.5 * length long.
    horizon = 0.75 * (0.5 * length) / (2.0 * math.sqrt(g * h_l))
    return _dam_break("ritter", length, h_l, 0.0, horizon,
                      analytic.ritter_solution, h_l, g)


def stoker_case(h_l: float = 1.0, h_r: float = 0.1, length: float = 10.0,
                g: float = 9.81, horizon: float = 1.2) -> analytic.AnalyticalCase:
    """Wet dam break at mid-domain; the horizon keeps both waves inside."""
    return _dam_break("stoker", length, h_l, h_r, horizon,
                      analytic.stoker_solution, h_l, h_r, g)


CASES = {
    "lake-at-rest": lambda: analytic.lake_at_rest_case(0.5, name="lake-at-rest"),
    "lake-emerged": lambda: analytic.lake_at_rest_case(0.1, name="lake-emerged"),
    "ritter": ritter_case,
    "stoker": stoker_case,
}


def build_case(name: str) -> analytic.AnalyticalCase:
    try:
        return CASES[name]()
    except KeyError:
        raise ValueError(
            f"unknown case {name!r}; available: {', '.join(sorted(CASES))}"
        )


@dataclass
class CaseResult:
    case: str
    n: int
    dx: float
    l1: float
    l2: float
    linf: float


def strip_state(case: analytic.AnalyticalCase, n: int,
                g: float = 9.81) -> tuple[State, np.ndarray]:
    """A 3-row y-invariant strip initialized from the case; returns cell centers."""
    dx = case.length / n
    x = (np.arange(n) + 0.5) * dx
    z_row = case.topography(x)
    h_row, u_row = case.initial(x)
    state = State(STRIP_ROWS, n, dx, dx, np.tile(z_row, (STRIP_ROWS, 1)))
    state.h[INT] = np.tile(h_row, (STRIP_ROWS, 1))
    state.hu[INT] = np.tile(h_row * u_row, (STRIP_ROWS, 1))
    return state, x


def run_case(case: analytic.AnalyticalCase, n: int,
             params: PhysicalParams | None = None) -> CaseResult:
    """Advance the strip to the case horizon and compare h on the middle row."""
    if params is None:
        params = PhysicalParams()
    state, x = strip_state(case, n, params.g)
    spec = BoundarySpec.walls()
    t = 0.0
    while t < case.horizon:
        # The CFL step reads the ghosts, so fill them for this state at t.
        apply_boundaries(state, spec, t, params)
        dt = compute_dt(state, params)
        if t + dt >= case.horizon:
            dt = case.horizon - t
            t_next = case.horizon
        else:
            t_next = t + dt
        rk2_step(state, params, spec, t, dt)
        t = t_next
    h_exact, _ = case.exact(x, case.horizon)
    h_num = state.h[INT][STRIP_ROWS // 2]
    l1, l2, linf = analytic.error_norms(h_num, h_exact, state.dx)
    return CaseResult(case.name, n, state.dx, l1, l2, linf)


def observed_order(coarse: CaseResult, fine: CaseResult) -> float:
    """L1 convergence order between two resolutions; nan when both errors
    sit at round-off and the ratio is meaningless."""
    if coarse.l1 <= 1e-13 or fine.l1 <= 1e-13:
        return float("nan")
    return math.log(coarse.l1 / fine.l1) / math.log(fine.n / coarse.n)


def report(case_name: str, n: int,
           params: PhysicalParams | None = None) -> tuple[list[CaseResult], str]:
    """Run at n//2 and n; returns the results and a CSV text of norms/orders."""
    if n < 10:
        raise ValueError(f"need n >= 10 cells, got {n}")
    case = build_case(case_name)
    coarse = run_case(case, n // 2, params)
    fine = run_case(case, n, params)
    order = observed_order(coarse, fine)
    lines = ["case,n,dx,L1,L2,Linf,order"]
    lines.append(
        f"{coarse.case},{coarse.n},{coarse.dx:.10g},"
        f"{coarse.l1:.10g},{coarse.l2:.10g},{coarse.linf:.10g},"
    )
    lines.append(
        f"{fine.case},{fine.n},{fine.dx:.10g},"
        f"{fine.l1:.10g},{fine.l2:.10g},{fine.linf:.10g},{order:.6g}"
    )
    return [coarse, fine], "\n".join(lines) + "\n"

"""Run the analytical reference cases through the production 2D solver.

Each 1D case runs as a 3-row, y-invariant strip with wall boundaries so the
exact code path of real simulations is exercised.  Reports give error norms
of h at the horizon and the observed convergence order against a half-
resolution run.  Every case is fixed by its name, and every run steps with
the default PhysicalParams, whose g the dam breaks' exact solutions share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .boundary import BoundarySpec, apply_boundaries
from .partition import land, rk2_step
from .solver import compute_dt
from .state import INT, PhysicalParams, State

STRIP_ROWS = 3
PARAMS = PhysicalParams()
# Both dam breaks: a flat 10 m reach, a 1 m reservoir left of mid-domain.
_DAM_LENGTH = 10.0
_DAM_H_L = 1.0


def _dam_break(name: str, h_r: float, horizon: float,
               solution, *args) -> analytic.AnalyticalCase:
    """Flat bed holding _DAM_H_L left of mid-domain x0 and h_r right of it,
    exact in time as ``solution(x, t, x0, *args)``."""
    x0 = 0.5 * _DAM_LENGTH

    def topography(x):
        return np.zeros_like(np.asarray(x, dtype=np.float64))

    def initial(x):
        x = np.asarray(x, dtype=np.float64)
        h = np.where(x < x0, _DAM_H_L, h_r)
        return h, np.zeros_like(h)

    def exact(x, t):
        return solution(x, t, x0, *args)

    return analytic.AnalyticalCase(name, _DAM_LENGTH, topography, initial, exact, horizon)


def ritter_case() -> analytic.AnalyticalCase:
    """Dry dam break at mid-domain, run until the front crosses three
    quarters of the downstream reach."""
    # The reach downstream of x0 is 0.5 * _DAM_LENGTH long.
    horizon = 0.75 * (0.5 * _DAM_LENGTH) / (2.0 * math.sqrt(PARAMS.g * _DAM_H_L))
    return _dam_break("ritter", 0.0, horizon, analytic.ritter_solution, _DAM_H_L, PARAMS.g)


def stoker_case() -> analytic.AnalyticalCase:
    """Wet dam break onto 0.1 m at mid-domain; the 1.2 s horizon keeps both
    waves inside."""
    return _dam_break("stoker", 0.1, 1.2, analytic.stoker_solution,
                      _DAM_H_L, 0.1, PARAMS.g)


CASES = {
    "lake-at-rest": lambda: analytic.lake_at_rest_case(0.5, "lake-at-rest"),
    "lake-emerged": lambda: analytic.lake_at_rest_case(0.1, "lake-emerged"),
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


def strip_state(case: analytic.AnalyticalCase, n: int) -> tuple[State, np.ndarray]:
    """A 3-row y-invariant strip initialized from the case; returns cell centers."""
    dx = case.length / n
    x = (np.arange(n) + 0.5) * dx
    z_row = case.topography(x)
    h_row, u_row = case.initial(x)
    state = State(STRIP_ROWS, n, dx, dx, np.tile(z_row, (STRIP_ROWS, 1)))
    state.h[INT] = np.tile(h_row, (STRIP_ROWS, 1))
    state.hu[INT] = np.tile(h_row * u_row, (STRIP_ROWS, 1))
    return state, x


def run_case(case: analytic.AnalyticalCase, n: int) -> CaseResult:
    """Advance the strip to the case horizon and compare h on the middle row."""
    state, x = strip_state(case, n)
    spec = BoundarySpec.walls()
    t = 0.0
    while t < case.horizon:
        # The CFL step reads the ghosts, so fill them for this state at t.
        apply_boundaries(state, spec, t, PARAMS)
        dt, t_next = land(t, compute_dt(state, PARAMS), case.horizon)
        rk2_step(state, PARAMS, spec, t, dt)
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


def report(case_name: str, n: int) -> tuple[list[CaseResult], str]:
    """Run at n//2 and n; returns the results and a CSV text of norms/orders."""
    if n < 10:
        raise ValueError(f"need n >= 10 cells, got {n}")
    case = build_case(case_name)
    coarse = run_case(case, n // 2)
    fine = run_case(case, n)
    lines = ["case,n,dx,L1,L2,Linf,order"]
    for res, order in ((coarse, ""), (fine, format(observed_order(coarse, fine), ".6g"))):
        lines.append(f"{res.case},{res.n},{res.dx:.10g},"
                     f"{res.l1:.10g},{res.l2:.10g},{res.linf:.10g},{order}")
    return [coarse, fine], "\n".join(lines) + "\n"

"""Tests for the analytical validation harness."""

import math

import numpy as np
import pytest

from swflood import validate
from swflood.analytic import ritter_solution
from swflood.boundary import BoundarySpec, apply_boundaries
from swflood.state import INT, PhysicalParams
from swflood.validate import (
    CASES,
    CaseResult,
    build_case,
    observed_order,
    report,
    ritter_case,
    run_case,
    stoker_case,
    strip_state,
)


def test_case_registry():
    assert set(CASES) == {"lake-at-rest", "lake-emerged", "ritter", "stoker"}
    for name in CASES:
        assert build_case(name).name == name
    with pytest.raises(ValueError, match="unknown case 'tsunami'"):
        build_case("tsunami")


def test_ritter_case_horizon_keeps_front_inside():
    case = ritter_case()
    # front speed 2 sqrt(g h_l); after the horizon it has covered 3/4 of
    # the downstream half, staying clear of the wall
    front = 5.0 + 2.0 * math.sqrt(9.81) * case.horizon
    assert front == pytest.approx(5.0 + 0.75 * 5.0, rel=1e-12)
    h, u = case.initial(np.array([2.0, 8.0]))
    np.testing.assert_array_equal(h, [1.0, 0.0])
    np.testing.assert_array_equal(u, 0.0)
    h_t, _ = case.exact(np.array([5.0]), 0.3)
    h_ref, _ = ritter_solution(np.array([5.0]), 0.3, 5.0, 1.0, 9.81)
    assert h_t[0] == h_ref[0]


def test_stoker_case_initial_states():
    case = stoker_case()
    h, _ = case.initial(np.array([0.5, 9.5]))
    np.testing.assert_array_equal(h, [1.0, 0.1])
    assert case.horizon == 1.2


def test_strip_state_geometry():
    case = ritter_case()
    state, x = strip_state(case, 40)
    assert (state.nrows, state.ncols) == (3, 40)
    assert state.dx == 0.25
    np.testing.assert_allclose(x, (np.arange(40) + 0.5) * 0.25, rtol=1e-15)
    # y-invariant initial data on every row
    assert (state.h[INT] == state.h[INT][0:1, :]).all()
    assert (state.h[INT][0, :20] == 1.0).all()
    assert (state.h[INT][0, 20:] == 0.0).all()


def test_run_case_lake_at_rest_error_is_roundoff():
    res = run_case(build_case("lake-at-rest"), 40)
    assert res.case == "lake-at-rest"
    assert res.l1 <= 1e-13
    assert res.linf <= 1e-13


def test_run_case_ritter_converges():
    coarse = run_case(build_case("ritter"), 50)
    fine = run_case(build_case("ritter"), 100)
    assert fine.l1 < coarse.l1
    order = observed_order(coarse, fine)
    assert order > 0.5
    assert fine.l2 > 0 and fine.linf > 0


def test_run_case_takes_each_dt_from_ghosts_filled_at_its_time(monkeypatch):
    # compute_dt reads the ghost cells, so at every call they must be those
    # a fresh fill of the state being stepped gives at the step's time.
    seen, times = [], []
    compute_dt, rk2_step = validate.compute_dt, validate.rk2_step

    def recording_dt(state, params):
        seen.append(state.copy())
        return compute_dt(state, params)

    def recording_step(state, params, spec, t, dt=None):
        times.append(t)
        return rk2_step(state, params, spec, t, dt)

    monkeypatch.setattr(validate, "compute_dt", recording_dt)
    monkeypatch.setattr(validate, "rk2_step", recording_step)
    run_case(build_case("ritter"), 60)
    assert len(seen) == len(times) > 10
    for state, t in zip(seen, times):
        fresh = state.copy()
        apply_boundaries(fresh, BoundarySpec.walls(), t, PhysicalParams())
        for name in ("h", "hu", "hv", "z"):
            np.testing.assert_array_equal(getattr(state, name), getattr(fresh, name))


def test_observed_order_nan_at_roundoff():
    a = CaseResult("lake-at-rest", 50, 0.5, 1e-15, 0.0, 0.0)
    b = CaseResult("lake-at-rest", 100, 0.25, 1e-15, 0.0, 0.0)
    assert math.isnan(observed_order(a, b))
    c = CaseResult("ritter", 50, 0.2, 0.08, 0.0, 0.0)
    d = CaseResult("ritter", 100, 0.1, 0.04, 0.0, 0.0)
    assert observed_order(c, d) == pytest.approx(1.0, rel=1e-12)


def test_report_csv_format():
    results, csv = report("stoker", 40)
    lines = csv.strip().splitlines()
    assert lines[0] == "case,n,dx,L1,L2,Linf,order"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "stoker" and int(first[1]) == 20
    assert first[6] == ""  # the coarse row has no order yet
    last = lines[2].split(",")
    assert int(last[1]) == 40
    assert float(last[6]) == pytest.approx(observed_order(*results), rel=1e-5)
    assert results[0].n == 20 and results[1].n == 40


def test_report_rejects_tiny_grids():
    with pytest.raises(ValueError, match="n >= 10"):
        report("ritter", 8)


# The CSV text of report(case, 100) for each case, byte for byte.
REPORTS_AT_100 = {
    "lake-at-rest": (
        "case,n,dx,L1,L2,Linf,order\n"
        "lake-at-rest,50,0.5,5.551115123e-17,5.551115123e-17,5.551115123e-17,\n"
        "lake-at-rest,100,0.25,8.326672685e-17,6.798699778e-17,5.551115123e-17,nan\n"
    ),
    "lake-emerged": (
        "case,n,dx,L1,L2,Linf,order\n"
        "lake-emerged,50,0.5,0,0,0,\n"
        "lake-emerged,100,0.25,0,0,0,nan\n"
    ),
    "ritter": (
        "case,n,dx,L1,L2,Linf,order\n"
        "ritter,50,0.2,0.09367612838,0.04521936047,0.05517679723,\n"
        "ritter,100,0.1,0.04907786236,0.02532575598,0.03724679721,0.932609\n"
    ),
    "stoker": (
        "case,n,dx,L1,L2,Linf,order\n"
        "stoker,50,0.2,0.1089934197,0.06667397752,0.11770086,\n"
        "stoker,100,0.1,0.05578093787,0.04762130203,0.1244708918,0.966397\n"
    ),
}


@pytest.mark.parametrize("name", sorted(REPORTS_AT_100))
def test_report_csv_is_pinned(name):
    assert report(name, 100)[1] == REPORTS_AT_100[name]

"""Tests for the closed-form reference solutions and error norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swflood.analytic import (
    error_norms,
    exact_riemann_sample,
    lake_at_rest_case,
    parabolic_bump,
    ritter_solution,
    stoker_middle_state,
    stoker_solution,
)

G = 9.81


def physical_flux_point(h, u, g):
    return h * u, h * u * u + 0.5 * g * h * h


def exact_riemann_flux(h_l, u_l, h_r, u_r, g):
    """Physical flux of the exact Riemann solution at the interface (xi = 0)."""
    return physical_flux_point(*exact_riemann_sample(h_l, u_l, h_r, u_r, g, 0.0), g)


# --------------------------------------------------------------------------
# Lake at rest cases
# --------------------------------------------------------------------------


def test_parabolic_bump_profile():
    # crest 0.2 at x = 10; zero at and beyond x = 8 and x = 12
    assert parabolic_bump(10.0) == 0.2
    assert parabolic_bump(8.0) == 0.0
    assert parabolic_bump(12.0) == 0.0
    assert parabolic_bump(0.0) == 0.0
    assert parabolic_bump(9.0) == pytest.approx(0.2 - 0.05, rel=1e-15)


def test_lake_at_rest_case_submerged_and_emerged():
    x = np.linspace(0.0, 25.0, 81)
    case = lake_at_rest_case(0.5, "lake-at-rest")
    h, q = case.initial(x)
    assert (h + case.topography(x) == 0.5).all()
    np.testing.assert_array_equal(q, 0.0)
    # exact solution is time-invariant
    h5, q5 = case.exact(x, 5.0)
    np.testing.assert_array_equal(h5, h)
    # emerged variant dries the bump crest
    low = lake_at_rest_case(0.1, "lake-emerged")
    h_low, _ = low.initial(x)
    assert h_low[np.abs(x - 10.0) < 1.0].max() == 0.0
    assert (h_low >= 0.0).all()


# --------------------------------------------------------------------------
# Ritter dam break (dry bed)
# --------------------------------------------------------------------------


def test_ritter_state_at_dam_site():
    # At x = x0 the fan gives h = 4/9 h_l and u = 2/3 sqrt(g h_l).
    h, u = ritter_solution(np.array([40.0]), 2.0, 40.0, 1.0, G)
    assert h[0] == pytest.approx(4.0 / 9.0, rel=1e-14)
    assert u[0] == pytest.approx(2.0 / 3.0 * math.sqrt(G), rel=1e-14)


def test_ritter_far_states_and_front():
    c = math.sqrt(G * 1.8)
    x = np.array([-100.0, 100.0])
    h, u = ritter_solution(x, 3.0, 0.0, 1.8, G)
    np.testing.assert_array_equal(h, [1.8, 0.0])
    np.testing.assert_array_equal(u, [0.0, 0.0])
    # continuity at the fan edges (the front itself is dry by convention)
    edges = np.array([-c * 3.0, (2.0 * c - 1e-9) * 3.0, 2.0 * c * 3.0])
    h_e, u_e = ritter_solution(edges, 3.0, 0.0, 1.8, G)
    assert h_e[0] == pytest.approx(1.8, rel=1e-14)
    assert h_e[1] == pytest.approx(0.0, abs=1e-12)
    assert u_e[1] == pytest.approx(2.0 * c, rel=1e-9)
    assert h_e[2] == 0.0 and u_e[2] == 0.0


def test_ritter_depth_decreases_through_fan():
    x = np.linspace(-10.0, 10.0, 400)
    h, u = ritter_solution(x, 1.0, 0.0, 1.0, G)
    assert (np.diff(h) <= 1e-15).all()
    assert (h >= 0.0).all()
    # velocity rises monotonically over the wet region only
    assert (np.diff(u[h > 0]) >= -1e-15).all()


# --------------------------------------------------------------------------
# Stoker dam break (wet bed)
# --------------------------------------------------------------------------


def test_stoker_middle_state_satisfies_jump_conditions():
    h_m, u_m, s = stoker_middle_state(1.0, 0.1, G)
    # left rarefaction invariant
    assert u_m == 2.0 * (math.sqrt(G) - math.sqrt(G * h_m))
    # Rankine-Hugoniot mass and momentum across the right shock
    assert s * (h_m - 0.1) == pytest.approx(h_m * u_m, rel=1e-12)
    mom_jump = (h_m * u_m * u_m + 0.5 * G * h_m * h_m) - 0.5 * G * 0.1 * 0.1
    assert s * h_m * u_m == pytest.approx(mom_jump, rel=1e-10)
    # entropy: the middle state sits strictly between the initial depths
    assert 0.1 < h_m < 1.0
    assert h_m == pytest.approx(0.39617481679952105, rel=1e-12)


def test_stoker_middle_state_rejects_bad_ordering():
    with pytest.raises(ValueError, match="h_l > h_r > 0"):
        stoker_middle_state(0.1, 1.0, G)
    with pytest.raises(ValueError, match="h_l > h_r > 0"):
        stoker_middle_state(1.0, 0.0, G)


def test_stoker_solution_regions():
    h_m, u_m, s = stoker_middle_state(2.0, 0.4, G)
    c_l = math.sqrt(G * 2.0)
    c_m = math.sqrt(G * h_m)
    t, x0 = 2.0, 30.0
    # one probe per region: reservoir, fan, middle, undisturbed tail
    xi_fan = 0.5 * (-c_l + (u_m - c_m))
    x = x0 + t * np.array([-1.5 * c_l, xi_fan, 0.5 * (u_m - c_m + s), s * 1.5])
    h, u = stoker_solution(x, t, x0, 2.0, 0.4, G)
    assert h[0] == 2.0 and u[0] == 0.0
    assert h[1] == pytest.approx((2.0 * c_l - xi_fan) ** 2 / (9.0 * G), rel=1e-12)
    assert u[1] == pytest.approx(2.0 * (xi_fan + c_l) / 3.0, rel=1e-12)
    assert h[2] == pytest.approx(h_m, rel=1e-14)
    assert u[2] == pytest.approx(u_m, rel=1e-14)
    assert h[3] == 0.4 and u[3] == 0.0


def test_stoker_degenerate_equal_depths():
    x = np.linspace(0.0, 10.0, 11)
    h, u = stoker_solution(x, 1.0, 5.0, 0.7, 0.7, G)
    np.testing.assert_array_equal(h, 0.7)
    np.testing.assert_array_equal(u, 0.0)


# --------------------------------------------------------------------------
# Exact Riemann sampler
# --------------------------------------------------------------------------


def test_sampler_matches_ritter_on_dry_right():
    xs = np.linspace(-4.0, 8.0, 97)
    h_ref, u_ref = ritter_solution(xs, 1.0, 0.0, 1.3, G)
    for xi, hr, ur in zip(xs, h_ref, u_ref):
        h, u = exact_riemann_sample(1.3, 0.0, 0.0, 0.0, G, xi)
        assert h == pytest.approx(hr, abs=1e-12)
        assert u == pytest.approx(ur, abs=1e-12)


def test_sampler_matches_stoker_on_wet_bed():
    # Independent solvers: the sampler uses Newton on the depth function,
    # the dam-break solution bisects the velocity matching condition.
    xs = np.linspace(-5.0, 5.0, 101)
    h_ref, u_ref = stoker_solution(xs, 1.0, 0.0, 1.0, 0.1, G)
    for xi, hr, ur in zip(xs, h_ref, u_ref):
        h, u = exact_riemann_sample(1.0, 0.0, 0.1, 0.0, G, xi)
        assert h == pytest.approx(hr, abs=1e-9)
        assert u == pytest.approx(ur, abs=1e-9)


def test_sampler_symmetric_collision_has_zero_interface_flow():
    f_h, f_q = exact_riemann_flux(1.0, 1.0, 1.0, -1.0, G)
    assert f_h == 0.0
    # colliding flow piles up: interface pressure exceeds the rest value
    assert f_q > 0.5 * G * 1.0**2


def test_sampler_vacuum_between_receding_rarefactions():
    # u_r - u_l exceeds 2(c_l + c_r): a dry patch opens at the interface.
    h, u = exact_riemann_sample(0.1, -3.0, 0.1, 3.0, G, 0.0)
    assert h == 0.0 and u == 0.0
    # but the far states are untouched
    h_l, u_l = exact_riemann_sample(0.1, -3.0, 0.1, 3.0, G, -50.0)
    assert (h_l, u_l) == (0.1, -3.0)


def test_sampler_both_sides_dry():
    assert exact_riemann_sample(0.0, 0.0, 0.0, 0.0, G, 0.0) == (0.0, 0.0)


def test_sampler_pure_shock_advection():
    # Supersonic right-moving flow: interface state is the left state.
    h, u = exact_riemann_sample(1.0, 9.0, 0.5, 9.0, G, 0.0)
    f_h, f_q = exact_riemann_flux(1.0, 9.0, 0.5, 9.0, G)
    assert (f_h, f_q) == physical_flux_point(h, u, G)
    assert h == 1.0 and u == 9.0


@st.composite
def riemann_problems(draw):
    """(h_l, u_l, h_r, u_r, g) with either side possibly dry; half of them
    recede faster than 2(c_l + c_r), so a vacuum opens between the sides."""
    g = draw(st.sampled_from([G, 1.0]))
    depths = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
    speeds = st.floats(-10.0, 10.0)
    h_l, u_l, h_r, u_r = draw(depths), draw(speeds), draw(depths), draw(speeds)
    if draw(st.booleans()):
        c_l, c_r = math.sqrt(g * h_l), math.sqrt(g * h_r)
        u_r = u_l + 2.0 * (c_l + c_r) + draw(st.floats(0.0, 5.0))
    return h_l, u_l, h_r, u_r, g


@settings(max_examples=500, deadline=None)
@given(riemann_problems(), st.floats(-40.0, 40.0))
def test_sampler_is_mirror_symmetric(problem, xi):
    # Reflecting x swaps the sides and negates every velocity and xi.
    h_l, u_l, h_r, u_r, g = problem
    h, u = exact_riemann_sample(h_l, u_l, h_r, u_r, g, xi)
    h_m, u_m = exact_riemann_sample(h_r, -u_r, h_l, -u_l, g, -xi)
    # An absolute floor at the problem's scale for values that should be 0.
    depth = max(h_l, h_r)
    speed = max(abs(u_l), abs(u_r), math.sqrt(g * depth))
    assert math.isclose(h, h_m, rel_tol=1e-12, abs_tol=1e-12 * depth)
    assert math.isclose(u, -u_m, rel_tol=1e-12, abs_tol=1e-12 * speed)


# --------------------------------------------------------------------------
# Error norms
# --------------------------------------------------------------------------


def test_error_norms_hand_values():
    # error 0.125 on 10 cells of width 0.5: L1 = 0.625 exactly,
    # L2 = sqrt(0.125^2 * 10 * 0.5), Linf = 0.125
    numeric = np.full(10, 0.125)
    exact = np.zeros(10)
    l1, l2, linf = error_norms(numeric, exact, 0.5)
    assert l1 == 0.625
    assert l2 == math.sqrt(0.078125)
    assert linf == 0.125


def test_error_norms_zero_on_match():
    x = np.linspace(0.0, 1.0, 20)
    assert error_norms(x, x, 0.05) == (0.0, 0.0, 0.0)


def test_error_norms_empty():
    assert error_norms([], [], 1.0) == (0.0, 0.0, 0.0)

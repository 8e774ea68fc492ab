"""Tests for the time-stepping solver: CFL, friction, positivity, stepping."""

import numpy as np
import pytest

from swflood.boundary import BoundarySpec
from swflood.partition import rk2_step
from swflood.solver import (
    NumericalAbort,
    StageFluxes,
    StepDiagnostics,
    accumulate_edge_volumes,
    active_box,
    compute_dt,
    dt_from_wave_speed,
    friction_step,
    max_wave_speed,
)
from swflood.raster import RasterGrid
from swflood.state import INT, PhysicalParams, State, velocity
from scenes import bump_lake, march, wet_dam

G = 9.81
WALLS = BoundarySpec.walls()


def lake(nrows=10, ncols=10, depth=1.0, dx=1.0, z=None):
    if z is None:
        z = np.zeros((nrows, ncols))
    st = State(nrows, ncols, dx, dx, z)
    st.h[INT] = depth
    return st


# --------------------------------------------------------------------------
# State container
# --------------------------------------------------------------------------


def test_state_validation():
    with pytest.raises(ValueError, match="at least 1x1"):
        State(0, 3, 1.0, 1.0, np.zeros((0, 3)))
    with pytest.raises(ValueError, match="positive"):
        State(2, 2, 0.0, 1.0, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="does not match"):
        State(2, 2, 1.0, 1.0, np.zeros((3, 2)))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["dx", "dy", "xll", "yll"])
def test_state_rejects_a_non_finite_geometry(name, value):
    geometry = {"dx": 1.0, "dy": 1.0, "xll": 0.0, "yll": 0.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be a finite number, got {value}$"):
        State(2, 2, z=np.zeros((2, 2)), **geometry)


def test_state_total_volume():
    st = lake(4, 5, depth=0.5, dx=2.0)
    assert st.total_volume() == 0.5 * 20 * 4.0  # h * cells * cell area


def test_velocity_zero_on_dry():
    h = np.array([1.0, 0.0, 1e-12])
    q = np.array([3.0, 3.0, 3.0])
    np.testing.assert_array_equal(velocity(h, q, 1e-10), [3.0, 0.0, 0.0])


def test_params_validation_and_cfl_warning():
    with pytest.raises(ValueError, match="manning_n"):
        PhysicalParams(manning_n=-0.1)
    with pytest.raises(ValueError, match="dt_min"):
        PhysicalParams(dt_min=0.0)
    with pytest.raises(ValueError, match="^g must be positive, got 0.0$"):
        PhysicalParams(g=0.0)
    with pytest.raises(ValueError, match="^h_dry must be positive, got 0.0$"):
        PhysicalParams(h_dry=0.0)
    with pytest.warns(UserWarning, match="unstable"):
        PhysicalParams(cfl=50.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["g", "manning_n", "h_dry", "cfl", "dt_min", "dt_max"])
def test_params_reject_non_finite_numbers(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        PhysicalParams(**{name: value})


def test_state_copy_is_independent():
    st = lake(depth=1.0)
    cp = st.copy()
    cp.h[INT] += 1.0
    cp.z[3, 3] = 99.0
    assert st.h[INT].max() == 1.0
    assert st.z[3, 3] == 0.0


def test_from_dsm_rejects_nodata_unless_walled():
    vals = np.zeros((3, 4))
    vals[1, 2] = -9999.0
    dsm = RasterGrid(4, 3, 0.0, 0.0, 1.0, -9999.0, vals)
    with pytest.raises(ValueError, match="1 nodata cell"):
        State.from_dsm(dsm)
    st = State.from_dsm(dsm, initial_h=0.3, nodata_walls=True)
    assert st.wall_mask.sum() == 1 and st.wall_mask[1, 2]
    assert st.z[INT][1, 2] > 1e3  # raised far above the terrain
    # walls start dry; open cells get the initial depth
    assert st.h[INT][1, 2] == 0.0
    assert st.h[INT][1, 1] == 0.3
    with pytest.raises(ValueError, match="initial_h"):
        State.from_dsm(dsm, initial_h=-0.5, nodata_walls=True)


# --------------------------------------------------------------------------
# Wave speed and time step
# --------------------------------------------------------------------------


def test_dt_still_lake_hand_value():
    # Speed sqrt(9.81) = 3.13209...; dt = 0.5 * 1 / speed = 0.15964.
    st = lake(depth=1.0)
    params = PhysicalParams()
    assert max_wave_speed(st, params, active_box(st)) == np.sqrt(G)
    assert compute_dt(st, params) == pytest.approx(0.15964, abs=1e-5)


def test_dt_scales_with_cfl_and_spacing():
    st = lake(depth=1.0)
    dt1 = compute_dt(st, PhysicalParams(cfl=0.25))
    dt2 = compute_dt(st, PhysicalParams(cfl=0.5))
    assert dt2 == 2.0 * dt1
    st_fine = lake(depth=1.0, dx=0.5)
    assert compute_dt(st_fine, PhysicalParams(cfl=0.5)) == 0.5 * dt2


def test_dt_takes_the_smaller_cell_side():
    # cfl * min(dx, dy) / speed = 0.5 * 0.25 / 2; the larger side would give 0.25.
    for dx, dy in ((1.0, 0.25), (0.25, 1.0)):
        assert dt_from_wave_speed(2.0, dx, dy, PhysicalParams()) == 0.0625


def test_edge_volumes_weight_each_line_by_its_cell_side():
    # West and east lines cross faces dy high, north and south ones faces dx
    # wide; a unit flux through an edge's 3 faces moves 3 * side * weight.
    dx, dy = 1.0, 0.25
    for edge, side, outward in (("west", dy, -1.0), ("east", dy, 1.0),
                                ("north", dx, -1.0), ("south", dx, 1.0)):
        volume = 3 * side * 0.5
        for sign, moved in ((-1.0, (volume, 0.0)), (1.0, (0.0, volume))):
            edges = StageFluxes(west=np.zeros(3), east=np.zeros(3),
                                north=np.zeros(3), south=np.zeros(3))
            setattr(edges, edge, np.full(3, sign * outward))
            diag = StepDiagnostics(dt=1.0, max_wave_speed=0.0, min_h=0.0)
            accumulate_edge_volumes(diag, edges, dx, dy, 0.5)
            assert (diag.inflow_volume, diag.outflow_volume) == moved, (edge, sign)


def test_dt_all_dry_returns_dt_max():
    st = lake(depth=0.0)
    assert compute_dt(st, PhysicalParams(dt_max=7.5)) == 7.5


def test_dt_below_dt_min_aborts():
    with pytest.raises(NumericalAbort, match="dt_min"):
        dt_from_wave_speed(1e12, 1.0, 1.0, PhysicalParams())


def test_wave_speed_sees_ghost_strips():
    # A wet ghost column (e.g. a discharge inflow onto a dry bed) must
    # bound dt even though the interior is dry.
    st = lake(depth=0.0)
    st.h[3, 0:2] = 0.25
    st.hu[3, 0:2] = 0.25 * 2.0
    params = PhysicalParams()
    speed = 2.0 + np.sqrt(G * 0.25)
    for box in (active_box(st), (0, st.nrows, 0, st.ncols)):
        assert max_wave_speed(st, params, box) == speed
    assert compute_dt(st, params) == dt_from_wave_speed(speed, st.dx, st.dy, params)
    # No fill writes a corner ghost, so one holds water only if a caller
    # put it there; it then counts like any other wet ghost.
    st2 = lake(depth=0.0)
    st2.h[0, 0] = 5.0
    for box in (active_box(st2), (0, st2.nrows, 0, st2.ncols)):
        assert max_wave_speed(st2, params, box) == np.sqrt(G * 5.0)


# --------------------------------------------------------------------------
# Friction
# --------------------------------------------------------------------------


def test_friction_identity_when_n_zero():
    params = PhysicalParams(manning_n=0.0)
    assert friction_step(1.0, 3.0, -3.0, 1.0, 2.0, 1.0, 0.1, params) == (3.0, -3.0)


def test_friction_identity_when_previous_discharge_zero():
    params = PhysicalParams(manning_n=0.05)
    assert friction_step(1.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.1, params) == (3.0, 2.0)


def test_friction_hand_value():
    # n=0.1, dt=1, h_n=h*=1, q_n=1: denom = 1 + 0.01 -> q = 1/1.01.
    params = PhysicalParams(manning_n=0.1)
    qx, qy = friction_step(1.0, 1.0, 1.0, 1.0, 1.0, -1.0, 1.0, params)
    assert qx == pytest.approx(0.9900990099009901, rel=1e-15)
    assert qy == pytest.approx(0.9900990099009901, rel=1e-15)


def test_friction_leaves_dry_momentum_to_the_dry_reset():
    # A cell dry after the stage keeps its momentum unscaled; the stage's dry
    # reset zeroes it.  With n = 0 friction hands back the very arrays.
    params = PhysicalParams(manning_n=0.1)
    assert friction_step(0.0, 3.0, -3.0, 1.0, 1.0, 1.0, 0.1, params) == (3.0, -3.0)
    qx, qy = np.array([3.0, 0.5]), np.array([-3.0, 0.5])
    out = friction_step(np.ones(2), qx, qy, np.ones(2), qx, qy, 0.1,
                        PhysicalParams(manning_n=0.0))
    assert out[0] is qx and out[1] is qy


def test_friction_never_amplifies():
    rng = np.random.default_rng(31)
    n = 2000
    h_star = rng.uniform(1e-8, 4.0, size=n)
    h_n = rng.uniform(1e-8, 4.0, size=n)
    qx_star = rng.uniform(-10, 10, size=n)
    qx_n = rng.uniform(-10, 10, size=n)
    qy_star, qy_n = rng.uniform(-10, 10, size=(2, n))
    for full_velocity in (False, True):
        params = PhysicalParams(manning_n=0.3, friction_full_velocity=full_velocity)
        out = friction_step(h_star, qx_star, qy_star, h_n, qx_n, qy_n, 0.5, params)
        for q, q_star in zip(out, (qx_star, qy_star)):
            assert (np.abs(q) <= np.abs(q_star) + 1e-300).all()
            assert (np.sign(q) == np.sign(q_star))[np.abs(q) > 0].all()


def test_friction_full_velocity_magnitude_coupling():
    # With |q| coupling the denominator uses hypot(qx, qy), not |qx|.
    params = PhysicalParams(manning_n=0.1, friction_full_velocity=True)
    qx, qy = friction_step(1.0, 1.0, 1.0, 1.0, 3.0, 4.0, 1.0, params)
    assert qx == pytest.approx(1.0 / (1.0 + 0.01 * 5.0), rel=1e-15)
    assert qy == qx


# --------------------------------------------------------------------------
# Full steps
# --------------------------------------------------------------------------


def test_flat_lake_at_rest_is_bitwise_fixed_point():
    st = lake(12, 9, depth=0.7)
    params = PhysicalParams()
    h0 = st.h[INT].copy()
    march(st, params, WALLS, 5)
    np.testing.assert_array_equal(st.h[INT], h0)
    np.testing.assert_array_equal(st.hu[INT], 0.0)
    np.testing.assert_array_equal(st.hv[INT], 0.0)


def test_lake_at_rest_over_bump_stays_balanced():
    # Submerged parabolic bump, surface w = 0.5: after 50 steps the surface
    # and velocities stay at machine precision.
    st = bump_lake(30, bump=0.2)
    march(st, PhysicalParams(), WALLS, 50)
    w = st.h[INT] + st.z[INT]
    assert np.abs(w - 0.5).max() <= 1e-13
    assert np.abs(st.hu[INT]).max() <= 1e-13


def test_dam_break_stays_y_invariant():
    # A strip problem constant along y must stay constant along y.
    st = wet_dam(24)
    march(st, PhysicalParams(), WALLS, 12)
    assert (st.h[INT] == st.h[INT][0:1, :]).all()
    assert (st.hu[INT] == st.hu[INT][0:1, :]).all()
    np.testing.assert_array_equal(st.hv[INT], 0.0)


def test_step_conserves_mass_in_closed_basin():
    rng = np.random.default_rng(34)
    n = 16
    st = State(n, n, 1.0, 1.0, np.zeros((n, n)))
    st.h[INT] = rng.uniform(0.5, 1.5, size=(n, n))
    v0 = st.total_volume()
    _, diags = march(st, PhysicalParams(), WALLS, 20)
    # walls pass no mass: per-step boundary volumes are exactly zero
    assert all(d.inflow_volume == 0.0 and d.outflow_volume == 0.0 for d in diags)
    assert st.total_volume() == pytest.approx(v0, rel=1e-14)


def test_step_keeps_depth_nonnegative_and_dry_momentum_zero():
    # Thin film draining over a step: no negative depths, dry cells inert.
    n = 20
    z = np.zeros((n, n))
    z[:, n // 2:] = 0.4
    st = State(n, n, 1.0, 1.0, z)
    st.h[INT][:, : n // 2] = 0.05
    params = PhysicalParams()
    t = 0.0
    for _ in range(30):
        diag = rk2_step(st, params, WALLS, t)
        t += diag.dt
        h = st.h[INT]
        assert (h >= 0.0).all()
        dry = h <= params.h_dry
        assert (st.hu[INT][dry] == 0.0).all()
        assert (st.hv[INT][dry] == 0.0).all()


def test_nan_in_state_aborts():
    st = lake()
    st.h[INT][4, 4] = np.nan
    with pytest.raises(NumericalAbort, match="non-finite"):
        rk2_step(st, PhysicalParams(), WALLS, 0.0)


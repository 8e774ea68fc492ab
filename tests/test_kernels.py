"""Tests for the pointwise scheme kernels.

Expectations are hand-computed; g = 9.81 gives round numbers like
g/2 = 4.905 for the pressure term.
"""

import numpy as np
import pytest

from swflood.analytic import exact_riemann_flux, ritter_solution
from swflood.kernels import (
    centered_source,
    hllc_flux,
    hydrostatic_reconstruct,
    interface_sources,
    minmod,
    muscl_reconstruct,
    physical_flux,
    velocity_reconstruct,
)

G = 9.81


# --------------------------------------------------------------------------
# minmod and MUSCL traces
# --------------------------------------------------------------------------


def test_minmod_branches():
    assert minmod(1.0, 2.0) == 1.0
    assert minmod(-1.0, -2.0) == -1.0
    assert minmod(1.0, -2.0) == 0.0
    assert minmod(-1.0, 2.0) == 0.0
    assert minmod(0.0, 5.0) == 0.0
    np.testing.assert_array_equal(
        minmod(np.array([3.0, -3.0]), np.array([2.0, -2.0])), [2.0, -2.0]
    )


def test_muscl_monotone_stencil():
    # (1, 2, 3): slope 1, traces 2 -/+ 0.5.
    assert muscl_reconstruct(1.0, 2.0, 3.0) == (1.5, 2.5)


def test_muscl_extremum_flattens():
    # (1, 3, 2): opposite-signed differences limit to zero slope.
    assert muscl_reconstruct(1.0, 3.0, 2.0) == (3.0, 3.0)


def test_muscl_constant_state():
    assert muscl_reconstruct(4.0, 4.0, 4.0) == (4.0, 4.0)


def test_muscl_traces_average_to_cell_value():
    rng = np.random.default_rng(21)
    prev, mid, nxt = rng.standard_normal((3, 200))
    lo, hi = muscl_reconstruct(prev, mid, nxt)
    np.testing.assert_allclose(0.5 * (lo + hi), mid, rtol=1e-15)


def test_muscl_traces_stay_between_neighbors():
    rng = np.random.default_rng(22)
    prev, mid, nxt = rng.uniform(-5, 5, size=(3, 500))
    lo, hi = muscl_reconstruct(prev, mid, nxt)
    assert (lo >= np.minimum(prev, mid) - 1e-15).all()
    assert (lo <= np.maximum(prev, mid) + 1e-15).all()
    assert (hi >= np.minimum(mid, nxt) - 1e-15).all()
    assert (hi <= np.maximum(mid, nxt) + 1e-15).all()


# --------------------------------------------------------------------------
# Discharge-conserving velocity traces
# --------------------------------------------------------------------------


def test_velocity_traces_hand_example():
    # u=1, h=2, face depths (1.5, 2.5), du=0.5, dx=2:
    #   step = 0.5*2*0.5/2 = 0.25; u- = 1 - 2.5*0.25; u+ = 1 + 1.5*0.25.
    u_minus, u_plus = velocity_reconstruct(1.0, 2.0, 1.5, 2.5, 0.5, 2.0)
    assert (u_minus, u_plus) == (0.375, 1.375)
    # Face discharges sum to twice the cell discharge: 1.5*0.375 + 2.5*1.375 = 4.
    assert 1.5 * u_minus + 2.5 * u_plus == 4.0


def test_velocity_traces_zero_on_dry_cells():
    u_minus, u_plus = velocity_reconstruct(3.0, 0.0, 0.0, 0.0, 1.0, 1.0)
    assert (u_minus, u_plus) == (0.0, 0.0)


def test_velocity_discharge_identity_random():
    rng = np.random.default_rng(23)
    h = rng.uniform(0.1, 5.0, size=300)
    u = rng.uniform(-4.0, 4.0, size=300)
    du = rng.uniform(-2.0, 2.0, size=300)
    dh = rng.uniform(-0.05, 0.05, size=300) * h
    h_minus, h_plus = h - dh, h + dh
    u_minus, u_plus = velocity_reconstruct(u, h, h_minus, h_plus, du, 1.0)
    lhs = h_minus * u_minus + h_plus * u_plus
    np.testing.assert_allclose(lhs, 2.0 * h * u, rtol=1e-13, atol=1e-15)


# --------------------------------------------------------------------------
# Hydrostatic interface depths
# --------------------------------------------------------------------------


def test_hydrostatic_reconstruct_step_up():
    # Bottom step dz = +0.5 eats into the left depth only.
    h_left, h_right = hydrostatic_reconstruct(2.0, 0.0, 1.0, 0.5)
    assert (h_left, h_right) == (1.5, 1.0)


def test_hydrostatic_reconstruct_emerging_step_dries():
    h_left, h_right = hydrostatic_reconstruct(0.3, 0.0, 0.0, 1.0)
    assert (h_left, h_right) == (0.0, 0.0)


def test_hydrostatic_outputs_nonnegative_and_bounded():
    rng = np.random.default_rng(24)
    h_m, h_p = rng.uniform(0.0, 3.0, size=(2, 500))
    z_m, z_p = rng.uniform(-2.0, 2.0, size=(2, 500))
    h_l, h_r = hydrostatic_reconstruct(h_m, z_m, h_p, z_p)
    assert (h_l >= 0.0).all() and (h_r >= 0.0).all()
    assert (h_l <= h_m).all() and (h_r <= h_p).all()


def test_hydrostatic_equal_surfaces_give_equal_depths():
    # Representable values: surface 1.0 with depths 0.75 / 0.5 means
    # dz = 0.25 exactly, so both sides reconstruct to 0.5 exactly.
    h_l, h_r = hydrostatic_reconstruct(0.75, 0.25, 0.5, 0.5)
    assert h_l == h_r == 0.5


# --------------------------------------------------------------------------
# HLL / HLLC fluxes
# --------------------------------------------------------------------------


def test_hll_identical_states_return_physical_flux():
    fh, fhu = hllc_flux(1.0, 0.0, 0.0, 1.0, 0.0, 0.0, G)[:2]
    assert (fh, fhu) == (0.0, 4.905)  # g/2 * h^2 exactly


def test_hll_two_dry_states_zero_flux():
    assert hllc_flux(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, G)[:2] == (0.0, 0.0)


def test_hll_supersonic_takes_upwind_flux():
    # u = 10 >> sqrt(g*1): both waves move right, flux is the left state's.
    fh, fhu = hllc_flux(1.0, 10.0, 0.0, 0.5, 10.0, 0.0, G)[:2]
    fh_l, fhu_l = physical_flux(1.0, 10.0, G)
    assert (fh, fhu) == (fh_l, fhu_l)
    # Mirrored: both waves left.
    fh, fhu = hllc_flux(1.0, -10.0, 0.0, 0.5, -10.0, 0.0, G)[:2]
    fh_r, fhu_r = physical_flux(0.5, -10.0, G)
    assert (fh, fhu) == (fh_r, fhu_r)


def test_hll_subsonic_flux_is_consistent_average():
    # Still-water dam: mass flux positive (water moves right), bounded by
    # the left state's wave flux.
    fh, fhu = hllc_flux(1.0, 0.0, 0.0, 0.1, 0.0, 0.0, G)[:2]
    assert 0.0 < fh < np.sqrt(G)  # less than h_l * c_l
    assert fhu > 0.0


def test_hll_matches_exact_riemann_on_resolved_dam_front():
    # On a grid that resolves the Ritter fan, the interface flux at the dam
    # site comes from two nearly equal fan states; it must agree with the
    # exact dam-break flux to within 1%.
    dx = 0.01
    t = 0.1
    x_faces = np.array([-dx, 0.0, dx])  # cell centers at +-dx/2
    centers = 0.5 * (x_faces[:-1] + x_faces[1:])
    h, u = ritter_solution(centers, t, 0.0, 1.0, G)
    fh, _ = hllc_flux(h[0], u[0], 0.0, h[1], u[1], 0.0, G)[:2]
    fh_exact, _ = exact_riemann_flux(1.0, 0.0, 0.0, 0.0, G)
    assert fh_exact == pytest.approx(0.9283, abs=5e-4)
    assert fh == pytest.approx(fh_exact, rel=0.01)


def test_hllc_transverse_flux_upwinds_on_contact():
    # Rightward flow carries the left cell's transverse velocity.
    fh, fhu, fhv = hllc_flux(1.0, 2.0, 5.0, 1.0, 2.0, -3.0, G)
    assert fhv == fh * 5.0
    # Leftward flow carries the right cell's.
    fh, fhu, fhv = hllc_flux(1.0, -2.0, 5.0, 1.0, -2.0, -3.0, G)
    assert fhv == fh * -3.0


def test_hllc_zero_denominator_falls_back_to_zero_contact():
    # Symmetric colliding states make the contact-speed denominator vanish;
    # c* = 0 then selects the left transverse velocity (c* >= 0).
    h, u = 1.0, 2.0
    fh, fhu, fhv = hllc_flux(h, u, 7.0, h, -u, 9.0, G)
    assert fhv == fh * 7.0


def test_hllc_mass_momentum_match_hll():
    rng = np.random.default_rng(25)
    h_l, h_r = rng.uniform(0.01, 3.0, size=(2, 200))
    u_l, u_r, v_l, v_r = rng.uniform(-3.0, 3.0, size=(4, 200))
    fh, fhu = hllc_flux(h_l, u_l, 0.0, h_r, u_r, 0.0, G)[:2]
    fh2, fhu2, _ = hllc_flux(h_l, u_l, v_l, h_r, u_r, v_r, G)
    np.testing.assert_array_equal(fh, fh2)
    np.testing.assert_array_equal(fhu, fhu2)


# --------------------------------------------------------------------------
# Source terms
# --------------------------------------------------------------------------


def test_interface_sources_hand_example():
    # g/2 * (2^2 - 1^2) = 4.905 * 3 = 14.715 on the left side.
    s_left, s_right = interface_sources(2.0, 1.5, 1.0, 1.5, G)
    assert s_left == 14.715
    assert s_right == 0.0  # right depth unchanged by the reconstruction


def test_centered_source_hand_example():
    # -g/2 * (1 + 1) * 0.1 = -0.981: downhill-right bottom pushes left.
    assert centered_source(1.0, 1.0, 0.0, 0.1, G) == pytest.approx(-0.981, rel=1e-15)


def test_centered_source_zero_on_flat_bottom():
    rng = np.random.default_rng(26)
    h_lo, h_hi = rng.uniform(0, 2, size=(2, 50))
    z = rng.uniform(-1, 1, size=50)
    np.testing.assert_array_equal(centered_source(h_lo, h_hi, z, z, G), 0.0)


def test_sources_cancel_over_cell_for_lake_at_rest():
    # Cell with surface w = 1 over a sloped bottom: depth traces (0.75, 0.5),
    # bottom traces (0.25, 0.5).  The residual combines -(F_east - F_west)
    # with +Fc, so balance needs Fc to equal the face pressure difference.
    h_m, h_p = 0.75, 0.5
    z_m, z_p = 0.25, 0.5
    pressure_diff = (0.5 * G) * (h_p * h_p) - (0.5 * G) * (h_m * h_m)
    fc = centered_source(h_m, h_p, z_m, z_p, G)
    assert fc == pytest.approx(pressure_diff, rel=1e-15)

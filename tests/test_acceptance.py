"""End-to-end acceptance suite.

Pins the guarantees the package is built around: exact lake-at-rest
balance, positivity at dry fronts, volume conservation, convergence to
analytical dam-break solutions, bit-reproducible threaded stepping, inflow
boundary correctness, deterministic terrain extrusion, and a miniature
flood study from config file to maximal-depth map.  The tolerances are
part of the contract: loosening one is an interface break, not a test fix.
"""

import hashlib
import io
import math
import time
from pathlib import Path

import numpy as np

from swflood import kernels, solver
from swflood.boundary import BoundarySpec, discharge, riemann_inflow, wall
from swflood.features import parse_features
from swflood.raster import RasterGrid, load_raster, write_ascii_grid
from swflood.rasterize import build_dsm
from swflood.simulation import load_scenario, run
from swflood.solver import friction_step
from swflood.state import INT, PhysicalParams, State, velocity
from swflood.validate import (
    build_case,
    observed_order,
    run_case,
    stoker_case,
    strip_state,
)
from scenes import (
    BENCHES,
    bump_lake,
    march,
    march_to,
    valley_z,
    wet_dam,
    write_valley_scenario,
)

G = 9.81
PARAMS = PhysicalParams()
WALLS = BoundarySpec.walls()

GOLDEN_DSM = Path(__file__).parent / "data" / "golden_dsm_20x20.asc"


# --------------------------------------------------------------------------
# Lake at rest: the scheme must hold a flat surface to round-off
# --------------------------------------------------------------------------


def test_lake_at_rest_over_submerged_bump_holds_for_thousand_steps():
    st = bump_lake(100, bump=0.2)
    started = time.perf_counter()
    march(st, PARAMS, WALLS, 1000)
    elapsed = time.perf_counter() - started
    w = st.h[INT] + st.z[INT]
    assert np.abs(w - 0.5).max() <= 1e-12
    u = velocity(st.h[INT], st.hu[INT], PARAMS.h_dry)
    v = velocity(st.h[INT], st.hv[INT], PARAMS.h_dry)
    assert np.abs(u).max() <= 1e-12
    assert np.abs(v).max() <= 1e-12
    assert elapsed <= 30.0


def test_lake_at_rest_around_island_keeps_dry_land_dry():
    # The bump pierces the surface: wet cells hold the flat surface, the
    # island must stay exactly dry (not just below h_dry).
    st = bump_lake(100, bump=0.8)
    island = st.h[INT] == 0.0
    assert island.sum() > 0
    started = time.perf_counter()
    march(st, PARAMS, WALLS, 1000)
    elapsed = time.perf_counter() - started
    wet = ~island
    w = st.h[INT] + st.z[INT]
    assert np.abs(w[wet] - 0.5).max() <= 1e-12
    assert (st.h[INT][island] == 0.0).all()
    u = velocity(st.h[INT], st.hu[INT], PARAMS.h_dry)
    v = velocity(st.h[INT], st.hv[INT], PARAMS.h_dry)
    assert np.abs(u).max() <= 1e-12
    assert np.abs(v).max() <= 1e-12
    assert elapsed <= 30.0


# --------------------------------------------------------------------------
# Dry-front positivity
# --------------------------------------------------------------------------


def test_dam_break_front_onto_dry_bed_never_goes_negative():
    # The wetting front is the stress case for positivity: every stage of
    # every step must report a non-negative minimum depth, with the front
    # crossing three quarters of the flume within the run.
    case = build_case("ritter")
    state, x = strip_state(case, 400)
    for diag in march_to(state, case.horizon):
        assert diag.min_h >= 0.0
    h = state.h[INT][1]
    assert np.isfinite(state.h[INT]).all()
    assert np.isfinite(state.hu[INT]).all()
    front = x[h > 1e-6].max()
    assert front >= 0.75 * case.length


# --------------------------------------------------------------------------
# Conservation
# --------------------------------------------------------------------------


def test_closed_basin_volume_drift_stays_at_roundoff():
    # Random sloshing over a rough bed with friction: walls pass no mass, so
    # a thousand steps may only move volume, never create or destroy it.
    rng = np.random.default_rng(47)
    n = 40
    st = State(n, n, 1.0, 1.0, rng.uniform(0.0, 0.2, size=(n, n)))
    st.h[INT] = rng.uniform(0.2, 1.2, size=(n, n))
    v0 = st.total_volume()
    march(st, PhysicalParams(manning_n=0.05), WALLS, 1000)
    assert abs(st.total_volume() - v0) <= 1e-10 * v0


# --------------------------------------------------------------------------
# Analytical dam-break benchmarks
# --------------------------------------------------------------------------


def test_dry_dam_break_error_shrinks_at_first_order():
    started = time.perf_counter()
    coarse = run_case(build_case("ritter"), 200)
    fine = run_case(build_case("ritter"), 400)
    elapsed = time.perf_counter() - started
    assert fine.l1 < coarse.l1
    assert observed_order(coarse, fine) >= 0.8
    # the L1 depth error on the fine grid is under 2% of the reservoir
    # depth integrated over the flume
    assert fine.l1 <= 0.02 * 1.0 * 10.0
    assert elapsed <= 120.0


def test_wet_dam_break_bore_lands_within_three_cells():
    # Middle-state depth and bore speed for the 1.0 -> 0.1 drop, verified
    # against the jump conditions in test_analytic.
    h_m = 0.39617481679952105
    bore_speed = 3.1051336506674865
    case = stoker_case()
    state, x = strip_state(case, 400)
    for _ in march_to(state, case.horizon):
        pass
    h = state.h[INT][1]
    # the bore footprint is the rightmost cell still above the mid-jump depth
    ahead = np.where(h > 0.5 * (h_m + 0.1))[0].max()
    x_ref = 5.0 + bore_speed * case.horizon
    assert abs(x[ahead] - x_ref) <= 3.0 * state.dx


# --------------------------------------------------------------------------
# Pointwise kernel contracts
# --------------------------------------------------------------------------


def test_friction_matches_closed_form_on_random_inputs():
    rng = np.random.default_rng(101)
    n = 10_000
    h_star = rng.uniform(1e-6, 5.0, size=n)
    h_n = rng.uniform(1e-6, 5.0, size=n)
    qx_star = rng.uniform(-10.0, 10.0, size=n)
    qx_n = rng.uniform(-10.0, 10.0, size=n)
    qy_star, qy_n = rng.uniform(-10.0, 10.0, size=(2, n))
    dt = 0.25
    manning = 0.07
    out = friction_step(h_star, qx_star, qy_star, h_n, qx_n, qy_n, dt,
                        PhysicalParams(manning_n=manning))
    for q, q_star, q_n in zip(out, (qx_star, qy_star), (qx_n, qy_n)):
        expected = q_star / (1.0 + dt * manning**2 * np.abs(q_n) / (h_n * h_star ** (4.0 / 3.0)))
        assert (np.abs(q - expected) <= 1e-14 * np.abs(expected)).all()
        assert (np.abs(q) <= np.abs(q_star)).all()


def test_velocity_traces_conserve_cell_discharge():
    # The reconstructed face discharges must sum to twice the cell
    # discharge for any stencil the limiter can produce.
    rng = np.random.default_rng(103)
    n = 10_000
    dx = 0.37
    h_prev, h_i, h_next = rng.uniform(0.05, 5.0, size=(3, n))
    sign = rng.choice([-1.0, 1.0], size=(3, n))
    u_prev, u_i, u_next = sign * rng.uniform(0.1, 5.0, size=(3, n))
    h_minus, h_plus = kernels.muscl_reconstruct(h_prev, h_i, h_next)
    du = kernels.muscl_slope(u_prev, u_i, u_next, dx)
    u_minus, u_plus = kernels.velocity_reconstruct(u_i, h_i, h_minus, h_plus, du, dx,
                                                   PARAMS.h_dry)
    lhs = h_minus * u_minus + h_plus * u_plus
    rhs = 2.0 * h_i * u_i
    assert (np.abs(lhs - rhs) <= 1e-13 * np.abs(rhs)).all()


# --------------------------------------------------------------------------
# Thread-count determinism
# --------------------------------------------------------------------------


def assert_threads_reproduce(ref):
    for nblocks in (1, 2, 4, 9):
        out, _ = march(wet_dam(), PARAMS, WALLS, 9, nblocks)
        np.testing.assert_array_equal(out.h[INT], ref.h[INT])
        np.testing.assert_array_equal(out.hu[INT], ref.hu[INT])
        np.testing.assert_array_equal(out.hv[INT], ref.hv[INT])


def test_any_block_tiling_reproduces_the_serial_fields_bitwise():
    # --blocks N sets the worker threads over the row strips of one state.
    ref = wet_dam()
    march(ref, PARAMS, WALLS, 9)
    assert_threads_reproduce(ref)


def test_any_thread_count_reproduces_the_serial_fields_on_small_strips(monkeypatch):
    # Twenty-five strips of 8 rows per stage against a serial run in 3 strips.
    ref = wet_dam()
    march(ref, PARAMS, WALLS, 9)
    monkeypatch.setattr(solver, "_STRIP_CELLS", 8 * 204)
    assert len(solver._strips(200, 204)) == 25
    assert_threads_reproduce(ref)


# --------------------------------------------------------------------------
# Inflow boundary
# --------------------------------------------------------------------------


def test_inflow_ghost_states_satisfy_discharge_and_invariant():
    rng = np.random.default_rng(109)
    subcritical = 0
    for _ in range(1000):
        h_i = rng.uniform(0.1, 3.0)
        u_i = rng.uniform(-1.5, 1.5)
        q_b = rng.uniform(0.01, 2.0)
        out = riemann_inflow(h_i, u_i, q_b, G)
        if out.critical:
            continue
        subcritical += 1
        assert abs(out.h * out.u - q_b) <= 1e-10
        invariant = u_i - 2.0 * math.sqrt(G * h_i)
        assert abs(out.u - 2.0 * math.sqrt(G * out.h) - invariant) <= 1e-10
    assert subcritical > 700


def test_zero_discharge_inflow_edge_leaves_a_lake_at_rest():
    # An idle river mouth must behave like any other closed edge.
    st = bump_lake(60, bump=0.2)
    spec = BoundarySpec(wall(), wall(), discharge(lambda t: 0.0, list(range(20, 40))), wall())
    _, diags = march(st, PARAMS, spec, 300)
    assert all(d.inflow_volume == 0.0 for d in diags)
    w = st.h[INT] + st.z[INT]
    assert np.abs(w - 0.5).max() <= 1e-12
    u = velocity(st.h[INT], st.hu[INT], PARAMS.h_dry)
    v = velocity(st.h[INT], st.hv[INT], PARAMS.h_dry)
    assert np.abs(u).max() <= 1e-12
    assert np.abs(v).max() <= 1e-12


# --------------------------------------------------------------------------
# Terrain extrusion
# --------------------------------------------------------------------------


def flat_dtm(n=20):
    return RasterGrid(n, n, 0.0, 0.0, 1.0, values=np.zeros((n, n)))


def test_built_dsm_matches_the_golden_raster_bitwise():
    # A wall polyline and a building footprint stamped onto a flat terrain;
    # the serialized result is pinned byte for byte.
    text = (
        "10;LINE;2.5 2.5 2,12.5 2.5 2\n"
        "20;POLYGON;5.25 5.25 5,9.75 5.25 5,9.75 9.75 5,5.25 9.75 5,5.25 5.25 5\n"
    )
    dsm = build_dsm(flat_dtm(), parse_features(io.StringIO(text)), {10, 20})
    with open(GOLDEN_DSM, encoding="utf-8") as f:
        golden = f.read()
    assert write_ascii_grid(dsm) == golden
    # sanity on the pinned content itself
    ref = load_raster(GOLDEN_DSM)
    assert (ref.values[17, 2:13] == 2.0).all()
    assert (ref.values[10:15, 5:10] == 5.0).all()


def test_extrusion_never_lowers_terrain_and_ignores_feature_order():
    rng = np.random.default_rng(113)
    for _ in range(100):
        dtm = RasterGrid(12, 12, 0.0, 0.0, 1.0, values=rng.uniform(0.0, 1.0, size=(12, 12)))
        features = []
        for _ in range(rng.integers(1, 6)):
            kind = rng.choice(["POINT", "LINE", "POLYGON"])
            npts = {"POINT": 1, "LINE": 2, "POLYGON": 4}[kind]
            pts = rng.uniform(0.5, 11.5, size=(npts, 2))
            zs = rng.uniform(0.0, 6.0, size=npts)
            if kind == "POLYGON":
                pts = np.vstack([pts, pts[0]])
                zs = np.append(zs, zs[0])
            coords = ",".join(f"{x} {y} {z}" for (x, y), z in zip(pts, zs))
            features.append(f"{rng.integers(1, 4)};{kind};{coords}")
        parsed = parse_features(io.StringIO("\n".join(features) + "\n"))
        dsm = build_dsm(dtm, parsed, {1, 2, 3})
        assert (dsm.values >= dtm.values).all()
        shuffled = parsed[rng.permutation(len(parsed))]
        dsm2 = build_dsm(dtm, shuffled, {1, 2, 3})
        np.testing.assert_array_equal(dsm2.values, dsm.values)


# --------------------------------------------------------------------------
# Miniature flood study, config file to maximal-depth map
# --------------------------------------------------------------------------


def test_valley_flood_closes_mass_and_deepens_with_the_peak(tmp_path):
    # A spin-up river plus a triangular flood wave down a walled valley:
    # the study must complete, balance its books, flood up to the bench
    # walls without breaching them, and nowhere get shallower when the
    # peak discharge doubles.
    started = time.perf_counter()
    full = run(load_scenario(write_valley_scenario(tmp_path, 20)))
    halved = run(load_scenario(write_valley_scenario(tmp_path, 10)))
    elapsed = time.perf_counter() - started
    assert full.balance.closure() <= 1e-6
    assert halved.balance.closure() <= 1e-6
    assert (full.maxima.max_h >= halved.maxima.max_h - 1e-9).all()
    for r0, r1, c0, c1 in BENCHES:
        assert (full.maxima.max_h[r0 + 1 : r1 - 1, c0 + 1 : c1 - 1] == 0.0).all()
    # the flood actually reached both protecting walls
    assert full.maxima.max_h[BENCHES[0][1], BENCHES[0][2] : BENCHES[0][3]].max() > 0.0
    assert full.maxima.max_h[BENCHES[1][0] - 1, BENCHES[1][2] : BENCHES[1][3]].max() > 0.0
    assert elapsed <= 300.0


def test_the_seeded_valley_is_the_bench_valley():
    # The bytes bench/workloads.py writes for the valley_flood workload at seed 131.
    grid = RasterGrid(200, 150, 0.0, 0.0, 2.0, values=valley_z(np.random.default_rng(131)))
    assert hashlib.sha256(write_ascii_grid(grid).encode()).hexdigest() == (
        "3b92e094677463c17ae867f6d32d76619b7bb79bd1e74de63eb36e7aec94c963")

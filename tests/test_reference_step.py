"""The time step against a plain whole-grid reference, and pins of the maxima.

BlockEngine.step advances only the active boxes of its two stages, in row
strips spread over worker threads, and simulation.run updates the maxima
only over the region a step changed.  The reference step below does none of
that.  It fills the ghosts, reduces the wave speed over the whole grid, and
runs each Euler-plus-friction stage with one residual_arrays call over the
whole grid and one update of the whole interior.  The Heun average and the
maxima also cover the whole grid.  It calls the same kernels in the same
order, so every drawn state must give the same bits: h, hu and hv with
their ghosts, every StepDiagnostics field and the three maxima maps.
"""

import hashlib
from dataclasses import dataclass
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swflood import simulation, solver
from swflood.boundary import BoundarySpec, apply_boundaries, discharge, free_outflow, wall
from swflood.partition import BlockEngine
from swflood.raster import RasterGrid, write_ascii_grid
from swflood.simulation import MaximaMaps, load_scenario, run
from swflood.solver import (
    POSITIVITY_TOL,
    NumericalAbort,
    StepDiagnostics,
    accumulate_edge_volumes,
    dt_from_wave_speed,
    friction_step,
    residual_arrays,
)
from swflood.state import INT, PhysicalParams, State, velocity

# --------------------------------------------------------------------------
# The reference step
# --------------------------------------------------------------------------


def ref_max_wave_speed(state, params):
    """max(|u| + sqrt(g h), |v| + sqrt(g h)) over the wet cells of the whole
    padded grid, corner ghosts included."""
    h = state.h
    wet = h > params.h_dry
    if not wet.any():
        return 0.0
    hw = h[wet]
    c = np.sqrt(params.g * hw)
    speed_u = np.abs(state.hu[wet]) / hw + c
    speed_v = np.abs(state.hv[wet]) / hw + c
    return max(float(speed_u.max()), float(speed_v.max()))


def ref_clamp(h, min_h, context):
    """Abort on a depth below -POSITIVITY_TOL, naming its first cell; clamp
    the whole interior when the minimum is a roundoff negative."""
    if min_h < -POSITIVITY_TOL:
        r, c = np.unravel_index(int(np.argmin(h)), h.shape)
        raise NumericalAbort(f"negative depth {min_h:.3e} at cell ({r}, {c}) after {context}")
    if min_h < 0.0:
        np.maximum(h, 0.0, out=h)


def ref_stage(state, params, dt):
    """One Euler hyperbolic substep plus friction over the whole grid."""
    # One strip covers the whole grid, so residual_arrays runs one pass.
    with patch.object(solver, "_STRIP_CELLS", 1 << 60):
        l_h, l_hu, l_hv, edges = residual_arrays(
            state.h, state.hu, state.hv, state.z, state.dx, state.dy, params,
        )
    h, hu, hv = state.h[INT], state.hu[INT], state.hv[INT]
    h_new = h + dt * l_h
    qx_star = hu + dt * l_hu
    qy_star = hv + dt * l_hv
    qx_new, qy_new = friction_step(h_new, qx_star, qy_star, h, hu, hv, dt, params)
    if not (np.isfinite(h_new).all() and np.isfinite(qx_new).all()
            and np.isfinite(qy_new).all()):
        raise NumericalAbort("non-finite field values after hyperbolic stage")
    dry = h_new <= params.h_dry
    qx_new[dry] = 0.0
    qy_new[dry] = 0.0
    min_h = float(h_new.min())
    state.h[INT] = h_new
    state.hu[INT] = qx_new
    state.hv[INT] = qy_new
    ref_clamp(state.h[INT], min_h, "hyperbolic stage")
    return edges, min_h


def ref_dt(state, params, spec, t):
    """The CFL step at time t, from freshly filled ghosts."""
    apply_boundaries(state, spec, t, params)
    return dt_from_wave_speed(ref_max_wave_speed(state, params), state.dx, state.dy, params)


def ref_step(state, params, spec, t, dt=None):
    """One Heun step of the whole grid; returns its StepDiagnostics."""
    apply_boundaries(state, spec, t, params)
    speed = ref_max_wave_speed(state, params)
    if dt is None:
        dt = dt_from_wave_speed(speed, state.dx, state.dy, params)
    diag = StepDiagnostics(dt=dt, max_wave_speed=speed, min_h=np.inf)
    saved = (state.h[INT].copy(), state.hu[INT].copy(), state.hv[INT].copy())
    for t_stage in (t, t + dt):
        diag.critical_inflow_fallbacks += apply_boundaries(state, spec, t_stage, params)
        edges, min_h = ref_stage(state, params, dt)
        diag.min_h = min(diag.min_h, min_h)
        accumulate_edge_volumes(diag, edges, state.dx, state.dy, 0.5 * dt)
    h, hu, hv = state.h[INT], state.hu[INT], state.hv[INT]
    h[...] = 0.5 * (saved[0] + h)
    hu[...] = 0.5 * (saved[1] + hu)
    hv[...] = 0.5 * (saved[2] + hv)
    if not (np.isfinite(h).all() and np.isfinite(hu).all() and np.isfinite(hv).all()):
        raise NumericalAbort("non-finite field values after Heun average")
    dry = h <= params.h_dry
    hu[dry] = 0.0
    hv[dry] = 0.0
    ref_clamp(h, float(h.min()), "Heun average")
    diag.min_h = min(diag.min_h, float(h.min()))
    return diag


def ref_update_maxima(maxima, state, t, h_dry):
    """The running maxima over the whole grid."""
    h, hu, hv = state.h[INT], state.hu[INT], state.hv[INT]
    speed = np.hypot(velocity(h, hu, h_dry), velocity(h, hv, h_dry))
    rising = h > maxima.max_h
    maxima.time_of_max_h[rising] = t
    np.maximum(maxima.max_h, h, out=maxima.max_h)
    np.maximum(maxima.max_speed, speed, out=maxima.max_speed)


# --------------------------------------------------------------------------
# Drawn cases
# --------------------------------------------------------------------------

NODATA = -9999.0


@dataclass
class Case:
    z: np.ndarray          # nodata marks a wall cell
    dx: float
    h: np.ndarray
    hu: np.ndarray
    hv: np.ndarray
    edges: dict            # edge -> (kind, riverbed mask, q, rising)
    params: PhysicalParams
    steps: int
    strip_cells: int
    via_compute_dt: bool

    def build(self):
        nrows, ncols = self.z.shape
        grid = RasterGrid(ncols, nrows, 0.0, 0.0, self.dx, NODATA, self.z)
        state = State.from_dsm(grid, nodata_walls=True)
        state.h[INT] = self.h
        state.hu[INT] = self.hu
        state.hv[INT] = self.hv
        conditions = {}
        for edge, (kind, mask, q, rising) in self.edges.items():
            if kind == "wall":
                conditions[edge] = wall()
            elif kind == "free_outflow":
                conditions[edge] = free_outflow()
            else:
                # A rising discharge is 0 at t = 0 and q after it, so the
                # second stage's box can reach cells the first one did not.
                conditions[edge] = discharge(
                    (lambda t, q=q: q if t > 0.0 else 0.0) if rising else (lambda t, q=q: q),
                    mask,
                )
        return state, BoundarySpec(**conditions)


def patch_mask(shape, kind, r0, c0, width, rows, cols):
    """Cells of a rectangle, a diagonal band or an L through (r0, c0)."""
    if kind == "rect":
        return (rows >= r0) & (rows < r0 + width) & (cols >= c0) & (cols < c0 + 2 * width)
    if kind == "diagonal":
        return np.abs((rows - r0) - (cols - c0)) < width
    if kind == "antidiagonal":
        return np.abs((rows - r0) + (cols - c0)) < width
    if kind == "L":
        return (((rows >= r0) & (rows < r0 + width) & (cols >= c0))
                | ((cols >= c0) & (cols < c0 + width) & (rows >= r0)))
    return np.zeros(shape, dtype=bool)


@st.composite
def cases(draw):
    nrows = draw(st.integers(1, 40))
    ncols = draw(st.integers(1, 40))
    shape = (nrows, ncols)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = np.indices(shape)
    h_dry = 1.0e-10

    z = rng.uniform(0.0, 0.1, size=shape) + draw(st.sampled_from([0.0, 0.02])) * cols
    walls = rng.random(shape) < draw(st.sampled_from([0.0, 0.1]))
    z[walls] = NODATA

    wet = patch_mask(
        shape, draw(st.sampled_from(["none", "rect", "diagonal", "antidiagonal", "L"])),
        draw(st.integers(0, nrows - 1)), draw(st.integers(0, ncols - 1)),
        draw(st.integers(1, 6)), rows, cols,
    ) & ~walls
    depth = draw(st.sampled_from(["deep", "shallow", "near_dry"]))
    if depth == "deep":
        values = rng.uniform(0.05, 0.5, size=shape)
    elif depth == "shallow":
        values = rng.uniform(1e-4, 1e-2, size=shape)
    else:
        values = h_dry * rng.choice([0.5, 1.0, 1.0 + 1e-9, 2.0, 1e3], size=shape)
    h = np.where(wet, values, 0.0)
    hu = np.where(wet, rng.uniform(-0.3, 0.3, size=shape) * h, 0.0)
    hv = np.where(wet, rng.uniform(-0.3, 0.3, size=shape) * h, 0.0)

    dry = ~wet
    h[dry & (rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 1.0])))] = -0.0
    p_signed = draw(st.sampled_from([0.0, 0.05]))
    hu[dry & (rng.random(shape) < p_signed)] = -0.0
    hv[dry & (rng.random(shape) < p_signed)] = -0.0
    if draw(st.booleans()):  # a dry cell carrying momentum
        hu[rng.integers(nrows), rng.integers(ncols)] = 0.3
    negatives = draw(st.sampled_from(["none", "roundoff", "too_negative"]))
    if negatives != "none":
        spots = rng.random(shape) < 0.05
        h[spots] = -rng.uniform(1e-16, 1e-13, size=shape)[spots]
        if negatives == "too_negative":
            h[rng.integers(nrows), rng.integers(ncols)] = -1e-11

    kinds = [draw(st.sampled_from(["wall", "free_outflow", "discharge"])) for _ in range(4)]
    edges, fed = {}, False
    for edge, kind in zip(("north", "south", "east", "west"), kinds):
        if kind == "discharge" and fed:
            kind = "wall"
        mask = q = rising = None
        if kind == "discharge":
            fed = True
            along = ncols if edge in ("north", "south") else nrows
            mask = sorted(draw(st.sets(st.integers(0, along - 1), min_size=1)))
            q = draw(st.sampled_from([0.05, 0.5, 2.0]))
            rising = draw(st.booleans())
        edges[edge] = (kind, mask, q, rising)

    params = PhysicalParams(
        manning_n=draw(st.sampled_from([0.0, 0.03])),
        friction_full_velocity=draw(st.booleans()),
        dt_max=draw(st.sampled_from([0.05, 10.0])),
    )
    return Case(
        z=z, dx=draw(st.sampled_from([0.5, 1.0, 2.0])), h=h, hu=hu, hv=hv,
        edges=edges, params=params, steps=draw(st.integers(1, 3)),
        strip_cells=draw(st.sampled_from([1, 7, 40, 300])),
        via_compute_dt=draw(st.booleans()),
    )


# --------------------------------------------------------------------------
# The comparison
# --------------------------------------------------------------------------


def bits(x):
    return float(x).hex()


def record(state, diag, maxima):
    """Everything a step leaves behind, exactly.  min_h is kept by value: a
    zero minimum may carry either sign, since numpy's min of tied +0.0 and
    -0.0 depends on its vectorized path."""
    return (
        [arr.tobytes() for arr in (state.h, state.hu, state.hv)],
        [bits(diag.dt), bits(diag.max_wave_speed), diag.min_h,
         bits(diag.inflow_volume), bits(diag.outflow_volume), diag.critical_inflow_fallbacks],
        [arr.tobytes() for arr in (maxima.max_h, maxima.max_speed, maxima.time_of_max_h)],
    )


def initial_maxima(state, h_dry):
    maxima = MaximaMaps.zeros(state.nrows, state.ncols)
    maxima.update(state.h[INT], state.hu[INT], state.hv[INT], 0.0, h_dry,
                  (0, state.nrows, 0, state.ncols))
    return maxima


def reference_run(case):
    state, spec = case.build()
    params = case.params
    maxima = initial_maxima(state, params.h_dry)
    out, t = [], 0.0
    for _ in range(case.steps):
        try:
            dt = ref_dt(state, params, spec, t) if case.via_compute_dt else None
            diag = ref_step(state, params, spec, t, dt)
        except NumericalAbort as exc:
            out.append(("abort", str(exc)))
            break
        t += diag.dt
        ref_update_maxima(maxima, state, t, params.h_dry)
        out.append(record(state, diag, maxima))
    return out


def engine_run(case, nthreads):
    """Steps and maxima as simulation.run takes them."""
    state, spec = case.build()
    params = case.params
    maxima = initial_maxima(state, params.h_dry)
    out, t = [], 0.0
    with patch.object(solver, "_STRIP_CELLS", case.strip_cells), \
            BlockEngine(state, params, spec, nblocks=nthreads) as engine:
        for _ in range(case.steps):
            try:
                dt = engine.compute_dt(t) if case.via_compute_dt else None
                diag = engine.step(t, dt)
            except NumericalAbort as exc:
                out.append(("abort", str(exc)))
                break
            t += diag.dt
            if diag.region is not None:
                maxima.update(state.h[INT], state.hu[INT], state.hv[INT], t, params.h_dry,
                              diag.region)
            out.append(record(state, diag, maxima))
    return out


def assert_engine_equals_reference(case):
    expected = reference_run(case)
    for nthreads in (1, 2, 3):
        got = engine_run(case, nthreads)
        assert len(got) == len(expected)
        for k, (g, e) in enumerate(zip(got, expected)):
            where = f"step {k + 1} at {nthreads} threads"
            if "abort" in (g[0], e[0]):
                assert g == e, f"{where}: aborts differ"
                continue
            assert g[0] == e[0], f"{where}: fields differ"
            assert g[1] == e[1], f"{where}: diagnostics differ"
            assert g[2] == e[2], f"{where}: maxima differ"


@settings(max_examples=150, deadline=None)
@given(cases())
def test_engine_step_and_maxima_equal_the_whole_grid_reference(case):
    assert_engine_equals_reference(case)


def test_a_stage_clamp_updates_the_maxima_of_the_whole_interior():
    # A flat walled grid at rest: row 0 is wet and cell (2, 1) roundoff-negative.
    # Stage 1 does not reach that cell, so its depth rule clamps the whole
    # interior, rewriting the -0.0 depths of rows 9-11 to +0.0; stage 2 wets
    # it, so the Heun average clamps nothing.  The two stage boxes end at
    # row 5, yet max_h must take the +0.0 of rows 9-11, as the whole-grid
    # reference does.
    h = np.zeros((13, 2))
    h[0] = 0.3
    h[2, 1] = -5e-14
    h[9:12] = -0.0
    zeros = np.zeros_like(h)
    case = Case(
        z=zeros, dx=1.0, h=h, hu=zeros, hv=zeros,
        edges=dict.fromkeys(("north", "south", "east", "west"), ("wall", None, None, None)),
        params=PhysicalParams(), steps=1, strip_cells=1, via_compute_dt=False,
    )
    assert_engine_equals_reference(case)

    state, spec = case.build()
    diag = BlockEngine(state, case.params, spec).step(0.0)
    assert diag.min_h == -5e-14
    assert diag.region == (0, 13, 0, 2)
    assert (state.h[INT] > 0.0)[:3].all()


# --------------------------------------------------------------------------
# Maxima pins: sha256 of max_h, max_speed and time_of_max_h after a run
# --------------------------------------------------------------------------


def small_valley(tmp_path, seed=5):
    """A 24x32 sloping valley with a channel fed from the west."""
    rng = np.random.default_rng(seed)
    rows = np.arange(24)[:, None]
    cols = np.arange(32)[None, :]
    z = 0.02 * (31 - cols) + 0.01 * np.abs(rows - 12) + np.zeros((24, 32))
    z[10:14, :] -= 0.2
    z += np.round(rng.uniform(-0.005, 0.005, size=z.shape), 4)
    grid = RasterGrid(32, 24, 0.0, 0.0, 2.0, values=z)
    (tmp_path / "valley.asc").write_text(write_ascii_grid(grid, precision=17), encoding="utf-8")
    (tmp_path / "riverbed.txt").write_text("".join(f"{r} 0\n" for r in range(10, 14)),
                                           encoding="utf-8")
    (tmp_path / "hydro.txt").write_text("0 0.5\n10 2\n20 0.5\n", encoding="utf-8")
    cfg = tmp_path / "valley.cfg"
    cfg.write_text(
        "dsm = valley.asc\noutput_dir = out\ntotal_duration = 30\n"
        "snapshot_interval = 15\nspinup_duration = 5\nspinup_q = 0.5\n"
        "manning_n = 0.03\nboundary.west = discharge\nboundary.east = free_outflow\n"
        "riverbed_mask = riverbed.txt\nhydrograph = hydro.txt\n",
        encoding="utf-8",
    )
    return cfg


def maxima_digests(maxima):
    return [hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()
            for arr in (maxima.max_h, maxima.max_speed, maxima.time_of_max_h)]


# Recorded before the maxima were updated over each step's changed region.
VALLEY_MAXIMA = [
    "172a0232159b5c7aeb256fbdb64520493ab50add56da15cf78688ab70d9f0d41",
    "48b75bb3115adbcdd04289f5842e2203948cb652ba5916f0a7477ddf2c2028da",
    "d8dbd8a29d5c82231230cf355cfe8670a302583890898c1560f2177f2b554e8b",
]
# The same run with -0.0 depths on dry land: where no water arrives, max_h
# keeps -0.0 (numpy's maximum returns its second operand on a +0.0/-0.0 tie).
SIGNED_ZERO_MAXIMA = [
    "e2ec7180d1f877eea52871a7b272eec8a669fc42b0aac9017fa3b1e40d572dcf",
    "48b75bb3115adbcdd04289f5842e2203948cb652ba5916f0a7477ddf2c2028da",
    "d8dbd8a29d5c82231230cf355cfe8670a302583890898c1560f2177f2b554e8b",
]


def test_valley_maxima_keep_their_bits(tmp_path):
    res = run(load_scenario(small_valley(tmp_path)))
    assert res.steps > 20
    assert maxima_digests(res.maxima) == VALLEY_MAXIMA


@pytest.mark.parametrize("roundoff", [False, True])
def test_maxima_over_signed_zero_depths_keep_their_bits(tmp_path, monkeypatch, roundoff):
    # Dry cells away from the channel start at -0.0.  With a roundoff-negative
    # depth as well, the first Heun average clamps the whole interior, which
    # rewrites every -0.0 depth to +0.0: the maxima must follow that rewrite
    # outside the cells the step advanced, and end as in the plain run.
    assemble = simulation.assemble

    def signed_zero_assemble(scenario):
        state, spec, grid = assemble(scenario)
        h = state.h[INT]
        h[:6] = -0.0
        h[18:, ::2] = -0.0
        if roundoff:
            h[2, 20] = -1e-15
        return state, spec, grid

    monkeypatch.setattr(simulation, "assemble", signed_zero_assemble)
    res = run(load_scenario(small_valley(tmp_path)))
    assert res.steps > 20
    assert np.signbit(res.state.h[INT]).any() != roundoff
    assert maxima_digests(res.maxima) == (VALLEY_MAXIMA if roundoff else SIGNED_ZERO_MAXIMA)

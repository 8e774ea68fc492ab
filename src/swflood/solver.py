"""Second-order well-balanced finite-volume solver for the 2D shallow water
equations with topography and Manning friction.

One step runs a two-stage Heun (TVD-RK2) update.  Each stage evaluates the
spatial residual built from MUSCL traces, the hydrostatic interface
reconstruction and HLLC fluxes plus interface and centered momentum sources,
then applies the semi-implicit friction update.  Depth stays nonnegative and
dry cells carry no momentum after every stage.  This module holds the stage
and the CFL time step; the step sequence lives once, in the partition
module, as BlockEngine.step and its one-thread form rk2_step.

A stage works only on its active box: the bounding box of the padded cells
with non-zero h, hu or hv, grown by the stencil radius GHOSTS and clipped to
the interior.  Every cell outside it keeps its bits, which is exactly what a
full-grid stage would give: an all-zero stencil yields the residual
-(0.0 - 0.0)/dx = -0.0 and x + dt*(-0.0) == x for every x, the dry reset
leaves +0.0 momentum on dry cells, and two dry states exchange a +0.0 edge
flux.  A state with an empty box does nothing; a fully wet one runs the
whole grid.

The box is evaluated in strips of rows holding about _STRIP_CELLS padded
cells each, so every temporary stays in cache.  A stage runs two phases,
each a task per strip passed to an order-preserving ``map``: the builtin
map, or a thread pool's map that runs the strips in parallel.  In phase 1,
residual_arrays hands each strip's rows plus their two halo rows on either
side to both sweeps and writes the result into whole-box outputs; phase 2
runs the update, friction and the dry-momentum reset of each strip.  Phase 1
only reads the state and phase 2 writes disjoint rows, so the strips of a
phase may run in any order.  This is bitwise exact: every kernel is
elementwise, a strip reads the same stencil values a whole-box pass reads,
and the per-strip results (edge flux lines, minimum depths, the first
failure) are reduced in strip order once every task of the phase has
returned.  The depth check keeps its whole-grid form: a non-finite value
anywhere aborts first, a too-negative depth aborts naming the first cell
holding the box minimum, and a roundoff-negative minimum lifts the negative
depths of the box, every one of them live, to +0.0.

No temporary of a strip is allocated.  Each thread owns a kernels.Workspace
for its life (see _workspace), and the kernels write every intermediate
into its views through numpy ``out=``; ``out=`` gives the bits a new array
would get.  A strip computes the velocities of its rows and halo rows into
it, once for both sweeps.  The x sweep writes its result straight into the
strip's rows of the whole-box outputs, the y sweep adds its own, and the
edge flux lines are copied out, so nothing a strip returns points into the
workspace.  Phase 2 runs the update in the strip's rows of those outputs
and friction in the workspace; the Heun average and the wave speed work in
place and in the workspace too.  So a warm step takes no fresh pages for
its temporaries: it allocates the whole-box outputs and the saved copies
of U^n, and little else.

The rest of a step is as lean (see partition.BlockEngine.step): the wave
speed reduces over the first stage's box, and the saved copy of U^n, the
Heun average and the depth minimum cover only the region the two stages
change.  Each gives the bits of its whole-grid form, as its docstring shows.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .state import GHOSTS, INT, PhysicalParams, State, velocity

# Depth this far below zero is attributed to roundoff and clamped; anything
# worse aborts the run as a positivity failure.
POSITIVITY_TOL = 1.0e-12

# A stage is evaluated in strips of rows holding about this many padded
# cells, so every temporary of a strip (128 KiB) stays in L2.  The
# temporaries are views of the running thread's workspace, which keeps its
# pages mapped from strip to strip and step to step: allocated per
# operation, they would be trimmed from the heap and faulted back in on every
# sweep.  Smaller strips run no faster on one thread and scale worse on
# several: each numpy call then hands the GIL between the worker threads
# after only a few microseconds of work.
_STRIP_CELLS = 16384


# Each thread's kernel workspace (see kernels.Workspace), kept for the
# thread's life, so the one-thread engine that rk2_step builds on every call
# reuses the calling thread's.
_WORKSPACES = threading.local()


def _workspace() -> kernels.Workspace:
    """The calling thread's workspace, with every view handed back."""
    ws = getattr(_WORKSPACES, "ws", None)
    if ws is None:
        ws = _WORKSPACES.ws = kernels.Workspace()
    ws.reset()
    return ws


class NumericalAbort(RuntimeError):
    """Unrecoverable numerical failure (NaN, negative depth, dt collapse)."""


@dataclass
class StepDiagnostics:
    dt: float
    max_wave_speed: float
    min_h: float
    inflow_volume: float = 0.0
    outflow_volume: float = 0.0
    critical_inflow_fallbacks: int = 0
    # Interior rows r0:r1 and columns c0:c1 holding every cell the step
    # changed, as (r0, r1, c0, c1): the union of its two stage boxes, since
    # no rule of the step writes outside them.  None when it changed none.
    region: tuple | None = None


@dataclass
class StageFluxes:
    """Mass flux across the four domain-edge interface lines, signed along +x/+row."""

    west: np.ndarray = None
    east: np.ndarray = None
    north: np.ndarray = None
    south: np.ndarray = None
    min_h: float = field(default=np.inf)


def _strips(nrows: int, width: int):
    """Half-open row ranges of about _STRIP_CELLS cells of ``width`` columns."""
    step = max(1, _STRIP_CELLS // width)
    return [(r, min(r + step, nrows)) for r in range(0, nrows, step)]


def _run_strips(map, fn, strips):
    """[fn(r0, r1) for each strip] through the order-preserving ``map``.

    A task that raises hands its exception back instead, so the first one in
    strip order is raised only after every task has returned and no strip
    is still writing to the state.
    """

    def task(strip):
        try:
            return fn(*strip), None
        except Exception as exc:
            return None, exc

    # A lone strip runs on the calling thread: a pool would only add its hand-off.
    results = [task(strips[0])] if len(strips) == 1 else list(map(task, strips))
    for _, exc in results:
        if exc is not None:
            raise exc
    return [out for out, _ in results]


def _axis_residual(h, un, ut, z, dx, g, h_dry, ws, out=None):
    """Residual contribution of one sweep direction.

    Arrays are oriented with the sweep along the last axis, which carries two
    ghost cells per side; the leading axis holds only the rows being updated.
    ``un`` and ``ut`` are the normal and transverse velocities.  Returns
    interior-shaped (Lh, Lqn, Lqt), written into ``out`` when given and
    else into ``ws``, and the mass flux at the first and last interior
    interface (the domain edges when the strip spans the grid) as views
    into ``ws``.  Every temporary comes from ``ws`` and stays held there.
    """
    hc = h[:, 1:-1]
    if out is None:
        out = ws.take(h[:, GHOSTS:-GHOSTS], n=3)
    l_h, l_qn, l_qt = out
    w, = ws.take(h)
    np.add(h, z, out=w)

    h_m, h_p = kernels.muscl_reconstruct(h[:, :-2], hc, h[:, 2:], ws)
    w_m, w_p = kernels.muscl_reconstruct(w[:, :-2], w[:, 1:-1], w[:, 2:], ws)
    du = kernels.muscl_slope(un[:, :-2], un[:, 1:-1], un[:, 2:], dx, ws)
    dv = kernels.muscl_slope(ut[:, :-2], ut[:, 1:-1], ut[:, 2:], dx, ws)
    u_m, u_p = kernels.velocity_reconstruct(un[:, 1:-1], hc, h_m, h_p, du, dx, h_dry, ws)
    v_m, v_p = kernels.velocity_reconstruct(ut[:, 1:-1], hc, h_m, h_p, dv, dx, h_dry, ws)
    z_m = np.subtract(w_m, h_m, out=w_m)
    z_p = np.subtract(w_p, h_p, out=w_p)

    # Interface k joins trace cell k (its plus face) to trace cell k+1 (minus face).
    h_left, h_right = kernels.hydrostatic_reconstruct(
        h_p[:, :-1], z_p[:, :-1], h_m[:, 1:], z_m[:, 1:], ws
    )
    fh, fqn, fqt = kernels.hllc_flux(
        h_left, u_p[:, :-1], v_p[:, :-1], h_right, u_m[:, 1:], v_m[:, 1:], g, ws
    )
    s_left, s_right = kernels.interface_sources(
        h_p[:, :-1], h_m[:, 1:], h_left, h_right, g, ws
    )
    ctr = slice(1, -1)
    fc = kernels.centered_source(h_m[:, ctr], h_p[:, ctr], z_m[:, ctr], z_p[:, ctr], g, ws)

    # l_h = -(fh[1:] - fh[:-1]) / dx, and likewise for the momenta.  Rounding
    # is symmetric, so x / -dx gives the bits of -x / dx for every finite x.
    right, = ws.take(l_h)
    np.subtract(fh[:, 1:], fh[:, :-1], out=l_h)
    np.add(fqn[:, 1:], s_left[:, 1:], out=l_qn)
    np.subtract(l_qn, np.add(fqn[:, :-1], s_right[:, :-1], out=right), out=l_qn)
    np.subtract(l_qn, fc, out=l_qn)
    np.subtract(fqt[:, 1:], fqt[:, :-1], out=l_qt)
    for lines in out:
        np.divide(lines, -dx, out=lines)
    return l_h, l_qn, l_qt, fh[:, 0], fh[:, -1]


def residual_arrays(h, hu, hv, z, dx, dy, params: PhysicalParams, map=map):
    """L(U) on the interior of padded arrays; ghosts must be current.

    Returns (Lh, Lhu, Lhv, edges) where edges holds the mass flux lines at
    the four domain-edge interfaces (west/east signed along +x, north/south
    along +row, i.e. positive means southward).  The interior is evaluated
    in row strips, one ``map`` task each (see the module docstring).  Each
    strip computes the velocities of its rows and their halo rows once, for
    both sweeps, in the workspace of its thread.
    """
    nr = h.shape[0] - 2 * GHOSTS
    nc = h.shape[1] - 2 * GHOSTS
    cols = slice(GHOSTS, GHOSTS + nc)
    g, h_dry = params.g, params.h_dry

    l_h = np.empty((nr, nc))
    l_hu = np.empty((nr, nc))
    l_hv = np.empty((nr, nc))
    edges = StageFluxes(west=np.empty(nr), east=np.empty(nr))

    def strip(r0, r1):
        ws = _workspace()
        # The strip's rows and the two halo rows on each side, which the y sweep reads.
        pad = slice(r0, r1 + 2 * GHOSTS)
        hs, zs = h[pad], z[pad]
        u = velocity(hs, hu[pad], h_dry, ws)
        v = velocity(hs, hv[pad], h_dry, ws)
        mark = ws.mark()
        rows, mid = slice(r0, r1), slice(GHOSTS, -GHOSTS)
        box = l_h[rows], l_hu[rows], l_hv[rows]
        *_, edges.west[rows], edges.east[rows] = _axis_residual(
            hs[mid], u[mid], v[mid], zs[mid], dx, g, h_dry, ws, box,
        )
        ws.release(mark)
        yh, yqn, yqt, fh_n, fh_s = _axis_residual(
            hs[:, cols].T, v[:, cols].T, u[:, cols].T, zs[:, cols].T, dy, g, h_dry, ws,
        )
        for lines, y_lines in zip(box, (yh, yqt, yqn)):
            np.add(lines, y_lines.T, out=lines)
        return fh_n.copy(), fh_s.copy()

    lines = _run_strips(map, strip, _strips(nr, h.shape[1]))
    edges.north = lines[0][0]
    edges.south = lines[-1][1]
    return l_h, l_hu, l_hv, edges


def max_wave_speed(state: State, params: PhysicalParams, box) -> float:
    """max(|u| + sqrt(g h), |v| + sqrt(g h)) over the wet cells of ``box``; 0 if none.

    The reduction covers the padded extent of the interior box as one
    rectangle, ghosts included, so boundary-driven waves (a discharge inflow
    onto a dry bed, say) bound the time step.  The rectangle holds corner
    ghosts too.  Fills write only the edge ghost strips; the stages, the Heun
    average, the clamp and a restart write only interior cells.  So corner
    ghosts keep the zeros State starts with and add nothing, and water that a
    caller writes there can only shorten dt.  Given the state's active box
    the result is the whole-grid maximum: every wet cell is live and so lies
    inside the box, and a maximum over a superset of the wet cells is exact.
    A None box has no live cell, so no wet one.

    The speeds are computed in the workspace, in row strips of about
    _STRIP_CELLS cells.  Every operation is masked to the wet cells, so dry
    ones cost little and are never read.  The maximum starts from 0, below
    every wet speed, so a rectangle without wet cells gives 0 and a NaN
    speed of a wet cell still wins.
    """
    if box is None:
        return 0.0
    r0, r1, c0, c1 = box
    cols = slice(c0, c1 + 2 * GHOSTS)
    ws = _workspace()
    best = 0.0
    for s0, s1 in _strips(r1 - r0 + 2 * GHOSTS, c1 - c0 + 2 * GHOSTS):
        cells = slice(r0 + s0, r0 + s1), cols
        h = state.h[cells]
        speed, c, wet = ws.take(h, n=2, masks=1)
        np.greater(h, params.h_dry, out=wet)
        # Rounding is monotone, so max(|hu|, |hv|) / h + c is the larger of
        # the two speeds bit for bit.
        np.abs(state.hu[cells], out=speed, where=wet)
        np.abs(state.hv[cells], out=c, where=wet)
        np.maximum(speed, c, out=speed, where=wet)
        np.divide(speed, h, out=speed, where=wet)
        np.sqrt(np.multiply(params.g, h, out=c, where=wet), out=c, where=wet)
        np.add(speed, c, out=speed, where=wet)
        # np.maximum, unlike the builtin max, keeps a NaN from either side.
        best = np.maximum(best, speed.max(where=wet, initial=0.0))
        ws.reset()
    return float(best)


def dt_from_wave_speed(speed: float, dx: float, dy: float, params: PhysicalParams) -> float:
    """CFL time step, clamped to dt_max; a collapse below dt_min aborts."""
    if speed <= 0.0:
        return params.dt_max
    dt = params.cfl * min(dx, dy) / speed
    if dt < params.dt_min:
        raise NumericalAbort(
            f"time step {dt:.3e} fell below dt_min {params.dt_min:.3e}"
        )
    return min(dt, params.dt_max)


def compute_dt(state: State, params: PhysicalParams) -> float:
    """CFL time step from the wave speed over the whole padded grid, which is
    the padded extent of the whole interior box."""
    box = (0, state.nrows, 0, state.ncols)
    return dt_from_wave_speed(max_wave_speed(state, params, box), state.dx, state.dy, params)


def friction_step(h_star, qx_star, qy_star, h_n, qx_n, qy_n, dt, params: PhysicalParams,
                  ws=kernels.FRESH):
    """Semi-implicit Manning friction applied after a hyperbolic stage.

        q_next = q_star / (1 + dt * n^2 * |q_n| / (h_n * h_star^(4/3)))

    for each momentum component q, on wet pairs: cells wet before and after
    the stage.  Every other cell keeps q_star, dry ones included; the
    stage's dry reset (_check_and_zero_dry) zeroes those.  With n = 0 it
    returns (qx_star, qy_star) themselves.  |q_next| never exceeds
    |q_star|.  |q_n| is the component's own magnitude, or with
    params.friction_full_velocity that of the discharge vector,
    sqrt(qx_n^2 + qy_n^2).  Returns (qx_next, qy_next), evaluating
    h_n * h_star^(4/3) once for both; they and every temporary come from
    ``ws`` (see kernels.Workspace).
    """
    n = params.manning_n
    if n == 0.0:
        return qx_star, qy_star
    qx_next, qy_next, safe, q_mag, loss, wet_pair, mark = ws.take(
        h_star, qx_star, qy_star, n=5, masks=1, keep=2)
    np.greater(h_star, params.h_dry, out=wet_pair)
    np.greater(h_n, params.h_dry, out=wet_pair, where=wet_pair)
    # The power runs on depth 1 outside wet pairs, never on a negative depth.
    safe.fill(1.0)
    np.copyto(safe, h_star, where=wet_pair)
    np.power(safe, 4.0 / 3.0, out=safe)
    np.multiply(h_n, safe, out=safe, where=wet_pair)
    if params.friction_full_velocity:
        np.multiply(qx_n, qx_n, out=q_mag)
        np.add(q_mag, np.multiply(qy_n, qy_n, out=loss), out=q_mag)
        np.sqrt(q_mag, out=q_mag)

    for out, q_star, q_n in ((qx_next, qx_star, qx_n), (qy_next, qy_star, qy_n)):
        # q_star / (1 + dt n^2 |q_n| / safe) on wet pairs, q_star elsewhere.
        mag = q_mag if params.friction_full_velocity else np.abs(q_n, out=loss)
        np.multiply(dt * n * n, mag, out=loss, where=wet_pair)
        np.divide(loss, safe, out=loss, where=wet_pair)
        np.add(1.0, loss, out=loss, where=wet_pair)
        np.copyto(out, q_star)
        np.divide(q_star, loss, out=out, where=wet_pair)
    ws.release(mark)
    return qx_next, qy_next


def _check_and_zero_dry(h, hu, hv, h_dry, context, ws) -> float:
    """Abort on non-finite values, zero dry momentum in place; return min depth.

    This is a stage's and the Heun average's one dry reset.  Negative depths
    count as dry, before or after clamping to zero.  The one mask comes from
    ``ws``.
    """
    test, = ws.take(h, n=0, masks=1)
    if not all(np.isfinite(a, out=test).all() for a in (h, hu, hv)):
        raise NumericalAbort(f"non-finite field values after {context}")
    dry = np.less_equal(h, h_dry, out=test)
    np.copyto(hu, 0.0, where=dry)
    np.copyto(hv, 0.0, where=dry)
    return float(h.min())


def box_cells(box):
    """Padded-array index of the interior cells of ``box`` = (r0, r1, c0, c1)."""
    r0, r1, c0, c1 = box
    return slice(r0 + GHOSTS, r1 + GHOSTS), slice(c0 + GHOSTS, c1 + GHOSTS)


def _depth_rule(state: State, box, box_min: float, context: str) -> float:
    """Apply the whole-grid depth rule after a pass that changed only ``box``.

    ``box_min``, the minimum depth over the box, is the interior's too.
    Cells outside the box are not live, so they hold depth +0.0 or -0.0.  A
    box side short of the grid edge has an outer ring two cells from every
    live cell, where both depth traces at the inner faces are 0: HLLC's dry
    branch gives those faces zero flux and no sources, so the ring keeps
    depth +-0.0 through a stage.  The outer ring of the Heun region is such
    a ring of a stage box, and U^n is +-0.0 there as well.  So box_min is
    already at most 0 when any cell lies outside the box.  A minimum below
    -POSITIVITY_TOL aborts naming the first cell of the box holding it; a
    roundoff-negative one sets the negative depths of the box to +0.0 in
    place.  Every negative depth is live, so it lies in the box; every other
    bit, -0.0 depths included, stays.  Returns box_min, from before the
    clamp.
    """
    if box_min >= 0.0:
        return box_min
    h = state.h[box_cells(box)]
    if box_min < -POSITIVITY_TOL:
        r0, _, c0, _ = box
        r, c = np.unravel_index(int(np.argmin(h)), h.shape)
        raise NumericalAbort(
            f"negative depth {box_min:.3e} at cell ({r0 + r}, {c0 + c}) after {context}"
        )
    np.copyto(h, 0.0, where=h < 0.0)
    return box_min


def active_box(state: State):
    """Interior rows and columns a stage must advance, or None if none.

    The box bounds every padded cell with non-zero h, hu or hv (ghosts
    included), plus interior cells holding -0.0 momentum, which a stage
    rewrites to +0.0; it is grown by the stencil radius GHOSTS and clipped to
    the interior.  Returns half-open interior ranges (r0, r1, c0, c1).
    """
    live = (state.h != 0.0) | (state.hu != 0.0) | (state.hv != 0.0)
    live[INT] |= (np.signbit(state.hu) | np.signbit(state.hv))[INT]
    rows = np.flatnonzero(live.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(live.any(axis=0))
    # Padded index p is interior index p - GHOSTS; growing the range by
    # GHOSTS doubles that shift on the low side and cancels it on the high one.
    r0 = max(int(rows[0]) - 2 * GHOSTS, 0)
    r1 = min(int(rows[-1]) + 1, state.nrows)
    c0 = max(int(cols[0]) - 2 * GHOSTS, 0)
    c1 = min(int(cols[-1]) + 1, state.ncols)
    return r0, r1, c0, c1


def euler_friction_stage(state: State, params: PhysicalParams, dt: float,
                         box, map=map) -> StageFluxes:
    """Advance the state in place by one Euler hyperbolic substep plus friction.

    ``box`` is the state's active box, found after the last ghost fill (see
    active_box).  Only it is evaluated; every cell outside it keeps its bits,
    which the module docstring shows is what a full-grid stage gives.  Both
    phases run one task per row strip through the order-preserving ``map``.
    """
    edges = StageFluxes(
        west=np.zeros(state.nrows), east=np.zeros(state.nrows),
        north=np.zeros(state.ncols), south=np.zeros(state.ncols),
    )
    if box is None:
        edges.min_h = 0.0
        return edges
    r0, r1, c0, c1 = box
    padded = (slice(r0, r1 + 2 * GHOSTS), slice(c0, c1 + 2 * GHOSTS))
    l_h, l_hu, l_hv, sub = residual_arrays(
        state.h[padded], state.hu[padded], state.hv[padded], state.z[padded],
        state.dx, state.dy, params, map,
    )
    if c0 == 0:
        edges.west[r0:r1] = sub.west
    if c1 == state.ncols:
        edges.east[r0:r1] = sub.east
    if r0 == 0:
        edges.north[c0:c1] = sub.north
    if r1 == state.nrows:
        edges.south[c0:c1] = sub.south

    cols = slice(c0 + GHOSTS, c1 + GHOSTS)

    def update(s0, s1):
        ws = _workspace()
        cells = (slice(r0 + GHOSTS + s0, r0 + GHOSTS + s1), cols)
        h_prev = state.h[cells]
        qx_prev = state.hu[cells]
        qy_prev = state.hv[cells]

        # U + dt * L, in the strip's rows of L.
        h_new, qx_star, qy_star = (
            np.add(prev, np.multiply(dt, lines[s0:s1], out=lines[s0:s1]), out=lines[s0:s1])
            for prev, lines in ((h_prev, l_h), (qx_prev, l_hu), (qy_prev, l_hv))
        )
        qx_new, qy_new = friction_step(h_new, qx_star, qy_star, h_prev, qx_prev, qy_prev,
                                       dt, params, ws)

        min_h = _check_and_zero_dry(h_new, qx_new, qy_new, params.h_dry,
                                    "hyperbolic stage", ws)
        state.h[cells] = h_new
        state.hu[cells] = qx_new
        state.hv[cells] = qy_new
        return min_h

    min_h = min(_run_strips(map, update, _strips(r1 - r0, c1 - c0 + 2 * GHOSTS)))
    edges.min_h = _depth_rule(state, box, min_h, "hyperbolic stage")
    return edges


def combine_heun(state: State, saved, box, params: PhysicalParams) -> float:
    """U^(n+1) = (U^n + U2) / 2 over ``box``, preserving nonnegativity and dry momentum.

    ``box`` bounds every cell the two stages changed and ``saved`` holds
    U^n = (h, hu, hv) over it.  Outside it no cell is live (h = +-0,
    hu = hv = +0) and U2 is U^n bit for bit; since 0.5 * (x + x) == x and
    the dry reset changes nothing there, a whole-grid pass leaves those
    cells as they are.  Every non-finite cell is live, so the finiteness
    check misses none.  The average then runs the depth rule (see
    _depth_rule), which writes only the negative depths of ``box``, and
    returns the interior's minimum depth before its clamp; 0.0 for a None
    box.
    """
    if box is None:
        return 0.0
    cells = box_cells(box)
    fields = state.h[cells], state.hu[cells], state.hv[cells]
    for field_n, field in zip(saved, fields):
        np.multiply(0.5, np.add(field_n, field, out=field), out=field)
    min_h = _check_and_zero_dry(*fields, params.h_dry, "Heun average", _workspace())
    return _depth_rule(state, box, min_h, "Heun average")


def accumulate_edge_volumes(diag: StepDiagnostics, edges: StageFluxes,
                            dx: float, dy: float, weight: float) -> None:
    """Add boundary flux volumes of one stage; ``weight`` is the stage's share of dt."""
    for line, width, inward in (
        (edges.west, dy, 1.0), (edges.east, dy, -1.0),
        (edges.north, dx, 1.0), (edges.south, dx, -1.0),
    ):
        q_in = inward * line * width
        diag.inflow_volume += float(np.maximum(q_in, 0.0).sum()) * weight
        diag.outflow_volume += float(np.maximum(-q_in, 0.0).sum()) * weight

"""Scenario driver: spin-up plus hydrograph inflow, maxima tracking,
mass-balance accounting, snapshot output and binary checkpoints.

A scenario is described by a `key = value` config file.  The run loop clips
the CFL time step so that steps land exactly on snapshot boundaries; the
schedule is a pure function of the configuration, which makes a run
restartable from any checkpoint bitwise.
"""

from __future__ import annotations

import hashlib
import logging
import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .boundary import (
    EDGES,
    BoundarySpec,
    EdgeCondition,
    EdgeKind,
    edge_mask_from_cells,
    read_riverbed_mask,
)
from .partition import BlockEngine
from .raster import RasterGrid, atomic_open, data_lines, load_raster, read_input, save_raster
from .solver import NumericalAbort
from .state import INT, PhysicalParams, State, velocity

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"SWFCHK03"
SNAPSHOT_PRECISION = 9


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


@dataclass(frozen=True)
class Hydrograph:
    """Piecewise-linear discharge series Q(t), clamped outside the knots."""

    times: np.ndarray
    flows: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        q = np.asarray(self.flows, dtype=np.float64)
        if t.ndim != 1 or t.size == 0 or q.shape != t.shape:
            raise ValueError("hydrograph needs at least one (t, Q) knot")
        for name, values in (("times", t), ("flows", q)):
            if not np.isfinite(values).all():
                raise ValueError(f"hydrograph {name} must be finite numbers, got {values}")
        if t.size > 1 and not (np.diff(t) > 0).all():
            raise ValueError("hydrograph times must be strictly increasing")
        if (q < 0).any():
            raise ValueError("hydrograph discharge must be nonnegative")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "flows", q)

    def q_at(self, t: float) -> float:
        return float(np.interp(t, self.times, self.flows))


def read_hydrograph(source) -> Hydrograph:
    """Columns `t Q` per line of a str or text stream; `#` comments."""
    times, flows = [], []
    for lineno, line in data_lines(source):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"hydrograph line {lineno}: expected 't Q', got {line!r}")
        try:
            t, q = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"hydrograph line {lineno}: non-numeric value in {line!r}")
        if not (math.isfinite(t) and math.isfinite(q)):
            raise ValueError(f"hydrograph line {lineno}: non-finite value in {line!r}")
        times.append(t)
        flows.append(q)
    return Hydrograph(np.array(times), np.array(flows))


@dataclass
class Scenario:
    dsm_path: Path
    output_dir: Path
    total_duration: float
    snapshot_interval: float
    boundary_kinds: dict[str, str]
    spinup_q: float
    spinup_duration: float
    params: PhysicalParams
    initial_h: float = 0.0
    nodata_walls: bool = False
    # Those of the discharge edge, if there is one.
    riverbed_cells: list[tuple[int, int]] | None = None
    hydrograph: Hydrograph | None = None


# PhysicalParams fields; a key left out takes the field's default.
_PARAM_KEYS = ("g", "manning_n", "cfl", "h_dry", "dt_min", "dt_max")
_KNOWN_KEYS = {
    "dsm", "riverbed_mask", "hydrograph", "output_dir", "nodata_walls",
    "spinup_q", "spinup_duration", "total_duration", "snapshot_interval", "initial_h",
    *_PARAM_KEYS, *(f"boundary.{edge}" for edge in EDGES),
}
_BOUNDARY_VALUES = tuple(kind.value for kind in EdgeKind)


def _parse_bool(key: str, value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"key {key!r}: expected a boolean, got {value!r}")


def _read_entries(source) -> dict[str, str]:
    """The `key = value` entries of a scenario file, checked line by line."""
    raw: dict[str, str] = {}
    for lineno, line in data_lines(source):
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _read(what: str, path: Path, parse):
    """read_input with every failure raised as ConfigError."""
    try:
        return read_input(path, parse)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_scenario(path) -> Scenario:
    """Parse a `key = value` scenario file; paths resolve relative to it.
    Once every key has passed its checks, a discharge edge's riverbed mask
    and hydrograph are read too; the DSM is left to assemble."""
    path = Path(path)
    raw = _read("config", path, _read_entries)

    def take_float(key, default=None):
        if key not in raw:
            if default is None:
                raise ConfigError(f"missing required key {key!r} in {path}")
            return default
        try:
            value = float(raw[key])
        except ValueError:
            raise ConfigError(f"key {key!r}: expected a number, got {raw[key]!r}")
        if not math.isfinite(value):
            raise ConfigError(f"key {key!r}: expected a finite number, got {raw[key]!r}")
        return value

    def take_path(key):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r} in {path}")
        # An absolute path replaces the base.
        return path.parent / raw[key]

    total = take_float("total_duration")
    if total <= 0:
        raise ConfigError("total_duration must be positive")
    snap = take_float("snapshot_interval", total)
    if snap <= 0:
        raise ConfigError("snapshot_interval must be positive")
    spin_t = take_float("spinup_duration", 0.0)
    if spin_t < 0 or spin_t > total:
        raise ConfigError("spinup_duration must lie in [0, total_duration]")
    spin_q = take_float("spinup_q", 0.0)
    if spin_q < 0:
        raise ConfigError("spinup_q must be nonnegative")
    initial_h = take_float("initial_h", 0.0)
    if initial_h < 0:
        raise ConfigError("initial_h must be nonnegative")

    kinds = {}
    for edge in EDGES:
        key = f"boundary.{edge}"
        value = raw.get(key, EdgeKind.WALL.value)
        if value not in _BOUNDARY_VALUES:
            raise ConfigError(
                f"key {key!r}: expected one of {_BOUNDARY_VALUES}, got {value!r}"
            )
        kinds[edge] = value
    n_discharge = sum(1 for v in kinds.values() if v == EdgeKind.DISCHARGE.value)
    if n_discharge > 1:
        raise ConfigError("at most one edge may carry the discharge condition")

    try:
        params = PhysicalParams(**{key: take_float(key) for key in _PARAM_KEYS if key in raw})
    except ValueError as exc:
        raise ConfigError(str(exc))

    scenario = Scenario(
        dsm_path=take_path("dsm"),
        output_dir=take_path("output_dir"),
        total_duration=total,
        snapshot_interval=snap,
        boundary_kinds=kinds,
        spinup_q=spin_q,
        spinup_duration=spin_t,
        params=params,
        initial_h=initial_h,
        nodata_walls="nodata_walls" in raw and _parse_bool(
            "nodata_walls", raw["nodata_walls"]
        ),
    )
    if not n_discharge:
        for key in ("riverbed_mask", "hydrograph"):
            if key in raw:
                raise ConfigError(f"key {key!r} needs an edge set to 'discharge'")
        return scenario
    mask_path, hydro_path = take_path("riverbed_mask"), take_path("hydrograph")
    scenario.riverbed_cells = _read("riverbed mask", mask_path, read_riverbed_mask)
    if not scenario.riverbed_cells:
        raise ConfigError(f"{mask_path}: no riverbed cells")
    scenario.hydrograph = _read("hydrograph", hydro_path, read_hydrograph)
    return scenario


def scenario_discharge(spinup_q: float, spinup_duration: float,
                       hg: Hydrograph):
    """Q(t): constant spin-up flow, then the hydrograph on its own clock."""

    def q_of_t(t: float) -> float:
        if t < spinup_duration:
            return spinup_q
        return hg.q_at(t - spinup_duration)

    return q_of_t


def assemble(scenario: Scenario):
    """Load the DSM and build (state, boundary spec, template grid)."""
    try:
        grid = load_raster(scenario.dsm_path)
    except OSError as exc:
        raise ConfigError(f"cannot read DSM {scenario.dsm_path}: {exc}")
    try:
        state = State.from_dsm(
            grid, initial_h=scenario.initial_h, nodata_walls=scenario.nodata_walls
        )
    except ValueError as exc:
        raise ConfigError(str(exc))

    conditions = {}
    for edge, kind in scenario.boundary_kinds.items():
        if kind != EdgeKind.DISCHARGE.value:
            conditions[edge] = EdgeCondition(EdgeKind(kind))
            continue
        try:
            mask = edge_mask_from_cells(scenario.riverbed_cells, edge, state.nrows, state.ncols)
        except ValueError as exc:
            raise ConfigError(str(exc))
        q_of_t = scenario_discharge(
            scenario.spinup_q, scenario.spinup_duration, scenario.hydrograph
        )
        conditions[edge] = EdgeCondition(EdgeKind.DISCHARGE, discharge=q_of_t, mask=mask)
    return state, BoundarySpec(**conditions), grid


@dataclass
class MaximaMaps:
    """Cellwise running maxima of depth and speed, with the time of peak depth."""

    max_h: np.ndarray
    max_speed: np.ndarray
    time_of_max_h: np.ndarray

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "MaximaMaps":
        shape = (nrows, ncols)
        return cls(np.zeros(shape), np.zeros(shape), np.zeros(shape))

    def update(self, h, hu, hv, t: float, h_dry: float, box=None) -> None:
        """Fold the interior fields at time t in; ``box`` = (r0, r1, c0, c1)
        limits the update to rows r0:r1 and columns c0:c1.

        The run loop passes the region a step changed (StepDiagnostics.region).
        That gives the bits of a whole-grid update: elsewhere the fields are
        those an earlier update saw, which left max_h >= h and max_speed >=
        speed.  ``rising`` is strict, and np.maximum resolves a +0.0/-0.0 tie
        the same way each time, so the maps and the times stay as they are.
        """
        if box is not None:
            cells = (slice(box[0], box[1]), slice(box[2], box[3]))
            h, hu, hv = h[cells], hu[cells], hv[cells]
        else:
            cells = (slice(None), slice(None))
        max_h, max_speed = self.max_h[cells], self.max_speed[cells]
        u = velocity(h, hu, h_dry)
        v = velocity(h, hv, h_dry)
        speed = np.hypot(u, v)
        rising = h > max_h
        self.time_of_max_h[cells][rising] = t
        np.maximum(max_h, h, out=max_h)
        np.maximum(max_speed, speed, out=max_speed)


@dataclass
class MassBalance:
    initial_volume: float
    inflow: float = 0.0
    outflow: float = 0.0
    final_volume: float = 0.0

    def closure(self) -> float:
        """|inflow − outflow − Δstorage| relative to the largest water budget
        term, so a zero-inflow closed basin reports its drift rather than 0/0."""
        err = abs(self.inflow - self.outflow
                  - (self.final_volume - self.initial_volume))
        return err / max(self.inflow, self.initial_volume, 1e-30)


def _restart_digest(scenario: Scenario, state: State, spec: BoundarySpec) -> bytes:
    """Fingerprint of everything a checkpoint must agree with to be resumable:
    the parameters, grid and topography, then the durations, spin-up, edge
    kinds, riverbed mask and hydrograph knots."""
    params = scenario.params
    hasher = hashlib.sha256()
    hasher.update(struct.pack(
        "<8dq",
        params.g, params.manning_n, params.h_dry, params.cfl,
        params.dt_min, params.dt_max, state.dx, state.dy,
        params.friction_full_velocity,
    ))
    hasher.update(struct.pack("<2q2d", state.nrows, state.ncols, state.xll, state.yll))
    hasher.update(np.ascontiguousarray(state.z[INT], dtype="<f8").tobytes())
    hasher.update(struct.pack(
        "<4d", scenario.total_duration, scenario.snapshot_interval,
        scenario.spinup_q, scenario.spinup_duration,
    ))
    for name in EDGES:
        cond = spec.edge(name)
        hasher.update(f"{name}={cond.kind.value};".encode())
        if cond.kind is EdgeKind.DISCHARGE:
            for arr in (cond.mask, scenario.hydrograph.times, scenario.hydrograph.flows):
                arr = np.ascontiguousarray(arr, dtype="<f8")
                hasher.update(struct.pack("<q", arr.size) + arr.tobytes())
    return hasher.digest()


_HEADER = struct.Struct("<qd2q3dq")  # step, t, nrows, ncols, in, out, V0, fallbacks


def _save_checkpoint(path, state: State, digest: bytes, t: float, step: int,
                     maxima: MaximaMaps, balance: MassBalance, fallbacks: int) -> None:
    """Write a restart file stamped with ``digest`` (see _restart_digest)."""
    fields = (
        state.h[INT], state.hu[INT], state.hv[INT],
        maxima.max_h, maxima.max_speed, maxima.time_of_max_h,
    )
    with atomic_open(path, binary=True) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(digest)
        f.write(_HEADER.pack(step, t, state.nrows, state.ncols,
                             balance.inflow, balance.outflow,
                             balance.initial_volume, fallbacks))
        for arr in fields:
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _load_checkpoint(path, state: State, digest: bytes):
    """Restore fields into ``state`` from a restart file stamped with ``digest``;
    returns (t, step, maxima, balance, fallbacks)."""
    blob = Path(path).read_bytes()
    magic = blob[: len(CHECKPOINT_MAGIC)]
    if magic != CHECKPOINT_MAGIC:
        if magic[:6] == CHECKPOINT_MAGIC[:6]:
            raise ConfigError(
                f"checkpoint {path} has format {magic.decode(errors='replace')}, "
                f"this version reads {CHECKPOINT_MAGIC.decode()}; rerun to rewrite it"
            )
        raise ConfigError(f"{path} is not a checkpoint file")
    offset = len(CHECKPOINT_MAGIC)
    if len(blob) < offset + 32 + _HEADER.size:
        raise ConfigError(f"checkpoint {path} is truncated inside its header")
    if blob[offset : offset + 32] != digest:
        raise ConfigError(
            f"checkpoint {path} was written for a different scenario "
            "(parameters, grid, topography, boundaries, inflow or schedule differ)"
        )
    offset += 32
    step, t, nrows, ncols, inflow, outflow, v0, fallbacks = _HEADER.unpack_from(
        blob, offset
    )
    offset += _HEADER.size
    count = nrows * ncols
    expected = offset + 6 * count * 8
    if (nrows, ncols) != (state.nrows, state.ncols) or len(blob) != expected:
        raise ConfigError(f"checkpoint {path} does not match the grid size")

    def read_field():
        nonlocal offset
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        offset += count * 8
        return arr.reshape(nrows, ncols).astype(np.float64)

    state.h[INT] = read_field()
    state.hu[INT] = read_field()
    state.hv[INT] = read_field()
    maxima = MaximaMaps(read_field(), read_field(), read_field())
    balance = MassBalance(initial_volume=v0, inflow=inflow, outflow=outflow)
    return t, step, maxima, balance, fallbacks


@dataclass
class RunResult:
    state: State
    maxima: MaximaMaps
    balance: MassBalance
    steps: int
    final_t: float
    critical_inflow_fallbacks: int
    output_dir: Path


def _event_schedule(scenario: Scenario) -> tuple[list[float], set[float]]:
    """Times every run of this scenario must land on exactly.

    Returns (sorted events, snapshot subset).  The schedule depends only on
    the configuration, so a restarted run reproduces it bit for bit.
    """
    total = scenario.total_duration
    interval = scenario.snapshot_interval
    snaps = []
    k = 1
    while k * interval < total * (1.0 - 1e-12):
        snaps.append(k * interval)
        k += 1
    snaps.append(total)
    events = set(snaps)
    if 0.0 < scenario.spinup_duration < total:
        events.add(scenario.spinup_duration)
    return sorted(events), set(snaps)


def _stamp_format(snapshot_times) -> str:
    """Format spec of the times in snapshot file names.

    Whole seconds zero-padded to six digits, unless two snapshots would share
    a name; then the fewest decimals that give every snapshot its own.
    """
    decimals = 0
    while len({f"{t:.{decimals}f}" for t in snapshot_times}) < len(snapshot_times):
        decimals += 1
    return f"0{7 + decimals if decimals else 6}.{decimals}f"


def _write_snapshot(outdir: Path, template: RasterGrid, state: State,
                    stamp: str, params: PhysicalParams) -> None:
    h = state.h[INT]
    u = velocity(h, state.hu[INT], params.h_dry)
    v = velocity(h, state.hv[INT], params.h_dry)
    for name, values in (("h", h), ("u", u), ("v", v)):
        save_raster(outdir / f"{name}_{stamp}.asc", replace(template, values=values),
                    SNAPSHOT_PRECISION)


def run(scenario: Scenario, blocks: int = 1, restart_path=None,
        checkpoint_time: float | None = None,
        checkpoint_path=None) -> RunResult:
    """Drive a scenario to total_duration; returns maxima and mass balance.

    Writes h/u/v snapshots at every snapshot boundary, maxima maps and a
    key = value summary at the end.  On a numerical abort the last completed
    state is written with an ``abort_`` prefix and the abort propagates.
    """
    state, spec, grid = assemble(scenario)
    params = scenario.params
    outdir = Path(scenario.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    events, snapshot_times = _event_schedule(scenario)
    stamp = _stamp_format(snapshot_times)
    digest = _restart_digest(scenario, state, spec)

    if checkpoint_time is not None:
        if checkpoint_path is None:
            raise ConfigError("checkpoint_time given without checkpoint_path")
        if checkpoint_time not in events:
            raise ConfigError(
                "checkpoint_time must coincide with a snapshot boundary "
                f"(got {checkpoint_time}, boundaries {events})"
            )

    if restart_path is not None:
        t, step, maxima, balance, fallbacks = _load_checkpoint(restart_path, state, digest)
        logger.info("restarted from %s at t = %.6f (step %d)", restart_path, t, step)
    else:
        t, step, fallbacks = 0.0, 0, 0
        maxima = MaximaMaps.zeros(state.nrows, state.ncols)
        maxima.update(state.h[INT], state.hu[INT], state.hv[INT], 0.0, params.h_dry)
        balance = MassBalance(initial_volume=state.total_volume())

    engine = BlockEngine(state, params, spec, nblocks=blocks)
    last_good = engine.gather()
    last_good_t = t
    status = "completed"
    try:
        while t < scenario.total_duration:
            target = events[bisect_right(events, t)]
            dt = engine.compute_dt(t)
            if t + dt >= target:
                dt = target - t
                t_next = target
            else:
                t_next = t + dt
            diag = engine.step(t, dt)
            step += 1
            t = t_next
            balance.inflow += diag.inflow_volume
            balance.outflow += diag.outflow_volume
            fallbacks += diag.critical_inflow_fallbacks

            current = engine.gather()
            if diag.region is not None:
                maxima.update(current.h[INT], current.hu[INT], current.hv[INT],
                              t, params.h_dry, diag.region)
            last_good, last_good_t = current, t

            if t in snapshot_times:
                _write_snapshot(outdir, grid, current, format(t, stamp), params)
            if checkpoint_time is not None and t == checkpoint_time:
                _save_checkpoint(checkpoint_path, current, digest, t, step,
                                 maxima, balance, fallbacks)
                logger.info("checkpoint written to %s at t = %.6f", checkpoint_path, t)
    except NumericalAbort as exc:
        status = "aborted"
        logger.error("numerical abort at step %d, t = %.6f: %s", step + 1, t, exc)
        _write_snapshot(outdir, grid, last_good, "abort_" + format(last_good_t, stamp), params)
        balance.final_volume = last_good.total_volume()
        _write_summary(outdir, status, step, last_good_t, balance, fallbacks, blocks)
        raise
    finally:
        engine.close()

    balance.final_volume = last_good.total_volume()
    for name in ("max_h", "max_speed", "time_of_max_h"):
        save_raster(outdir / f"{name}.asc", replace(grid, values=getattr(maxima, name)),
                    SNAPSHOT_PRECISION)
    _write_summary(outdir, status, step, t, balance, fallbacks, blocks)
    logger.info(
        "run complete: %d steps to t = %.6f, mass closure %.3e",
        step, t, balance.closure(),
    )
    return RunResult(
        state=last_good, maxima=maxima, balance=balance, steps=step,
        final_t=t, critical_inflow_fallbacks=fallbacks, output_dir=outdir,
    )


def _write_summary(outdir: Path, status: str, steps: int, final_t: float,
                   balance: MassBalance, fallbacks: int, blocks: int) -> None:
    lines = [
        f"status = {status}",
        f"steps = {steps}",
        f"final_t = {final_t:.17g}",
        f"initial_volume = {balance.initial_volume:.17g}",
        f"final_volume = {balance.final_volume:.17g}",
        f"inflow_volume = {balance.inflow:.17g}",
        f"outflow_volume = {balance.outflow:.17g}",
        f"mass_closure = {balance.closure():.17g}",
        f"critical_inflow_fallbacks = {fallbacks}",
        f"blocks = {blocks}",
    ]
    with atomic_open(outdir / "summary.txt") as fh:
        fh.write("\n".join(lines) + "\n")

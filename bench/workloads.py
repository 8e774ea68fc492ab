"""The four benchmark workloads: seeded inputs, timed operations, checks.

Every workload drives swflood only through its public API.  One operation
is timed from the end of its set-up to its last output; ``setup_s`` times
the set-up (scenario or raster read, feature parse, state and engine
construction) on its own.  Each operation also runs the correctness checks
of its workload; a failed check is recorded in ``OpRecord.failures``.
"""

from __future__ import annotations

import hashlib
import io
import math
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Calls go through the module attributes, which a tracer rebinds.
from swflood import features, raster, rasterize, simulation, validate
from swflood.boundary import BoundarySpec, apply_boundaries
from swflood.partition import BlockEngine
from swflood.raster import RasterGrid
from swflood.state import INT, PhysicalParams, State


@dataclass(frozen=True)
class Sizes:
    valley_time_scale: float      # multiplies every time of the 240 s study
    dam_n: int
    dam_steps: int
    ritter_n: int
    ritter_l1_ceiling: float      # fixed L1 depth-error ceiling at ritter_n [m]
    dsm_n: int
    dsm_features: int
    setup_repeats: int


FULL = Sizes(
    valley_time_scale=0.125,
    dam_n=600, dam_steps=3,
    ritter_n=1600, ritter_l1_ceiling=4.0e-3,
    dsm_n=1000, dsm_features=20000,
    setup_repeats=5,
)
SMOKE = Sizes(
    valley_time_scale=0.02,
    dam_n=48, dam_steps=2,
    ritter_n=64, ritter_l1_ceiling=8.0e-2,
    dsm_n=60, dsm_features=80,
    setup_repeats=2,
)


@dataclass
class OpRecord:
    """Measurements and check results of one operation."""

    setup_s: list[float]
    wall_s: float
    wall_2blk_s: float | None = None
    cell_steps: int | None = None
    failures: list[str] = field(default_factory=list)
    fingerprints: dict[str, str] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)


def field_digest(state: State) -> str:
    """sha256 of the interior h, hu and hv as little-endian float64."""
    hasher = hashlib.sha256()
    for arr in (state.h[INT], state.hu[INT], state.hv[INT]):
        hasher.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return hasher.hexdigest()


def same_fields(a: State, b: State) -> bool:
    return all(np.array_equal(x[INT], y[INT]) for x, y in
               ((a.h, b.h), (a.hu, b.hu), (a.hv, b.hv)))


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


class Workload:
    name = ""
    two_blocks = False

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        """Generates the inputs of ``seed``; files go under ``workdir``."""
        self.sizes = sizes

    def op(self, tracer=None, tracer_2blk=None) -> OpRecord:
        """One timed operation; tracers record the 1- and 2-block parts."""
        raise NotImplementedError

    def residual_input(self):
        """(state with filled ghosts, params) for the residual memory pass."""
        return None


# --------------------------------------------------------------------------
# valley_flood: the flood study through simulation.run
# --------------------------------------------------------------------------

VALLEY_SHAPE = (150, 200)
BENCHES = ((58, 70, 40, 72), (81, 93, 110, 142))
RIVER_ROWS = range(72, 79)


def valley_z(rng) -> np.ndarray:
    """Sloping valley with a channel notch, two walled benches and seeded
    millimetre relief."""
    nrows, ncols = VALLEY_SHAPE
    rows = np.arange(nrows)[:, None]
    cols = np.arange(ncols)[None, :]
    z = 0.01 * (ncols - 1 - cols) + 0.005 * np.abs(rows - 75)
    z = np.broadcast_to(z, (nrows, ncols)).copy()
    z[72:79, :] -= 0.3
    z += np.round(rng.uniform(-0.005, 0.005, size=z.shape), 4)
    for r0, r1, c0, c1 in BENCHES:
        ring = np.zeros((nrows, ncols), dtype=bool)
        ring[r0:r1, c0:c1] = True
        ring[r0 + 1 : r1 - 1, c0 + 1 : c1 - 1] = False
        z[ring] += 4.0
    return z


class ValleyFlood(Workload):
    """The acceptance-test valley, with its study clock scaled by
    ``valley_time_scale`` (spin-up at 5 m3/s, then a 20 m3/s peak)."""

    name = "valley_flood"
    two_blocks = True

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        rng = np.random.default_rng(seed)
        s = sizes.valley_time_scale
        grid = RasterGrid(VALLEY_SHAPE[1], VALLEY_SHAPE[0], 0.0, 0.0, 2.0, values=valley_z(rng))
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "valley.asc").write_text(raster.write_ascii_grid(grid))
        (workdir / "riverbed.txt").write_text("".join(f"{r} 0\n" for r in RIVER_ROWS))
        (workdir / "hydro.txt").write_text(f"0 5\n{60 * s:g} 20\n{120 * s:g} 5\n")
        self.config = workdir / "scenario.cfg"
        self.config.write_text(
            "dsm = valley.asc\n"
            "output_dir = out\n"
            f"total_duration = {240 * s:g}\n"
            f"snapshot_interval = {120 * s:g}\n"
            f"spinup_duration = {60 * s:g}\n"
            "spinup_q = 5\n"
            "manning_n = 0.03\n"
            "boundary.west = discharge\n"
            "boundary.east = free_outflow\n"
            "riverbed_mask = riverbed.txt\n"
            "hydrograph = hydro.txt\n"
        )
        self._final = None

    def _setup(self):
        scenario = simulation.load_scenario(self.config)
        state, spec, _ = simulation.assemble(scenario)
        BlockEngine(state, scenario.params, spec, nblocks=1).close()
        return scenario

    def op(self, tracer=None, tracer_2blk=None):
        """The study at 1 block.  The first operation of a run, and a traced
        one, also run it at 2 blocks and compare the fields bitwise; later
        operations are held to the first one's fingerprint.  Skipping the
        2-block run afterwards fits more 1-block studies in a run."""
        setups = [_timed(self._setup)[1] for _ in range(self.sizes.setup_repeats - 1)]
        with tracer or nullcontext():
            scenario, t_setup = _timed(self._setup)
            one, wall = _timed(simulation.run, scenario, blocks=1)
        setups.append(t_setup)
        shutil.rmtree(scenario.output_dir)
        rec = OpRecord(setups, wall,
                       cell_steps=one.state.nrows * one.state.ncols * one.steps)
        results = [("1-block", one)]
        if self._final is None or tracer_2blk is not None:
            with tracer_2blk or nullcontext():
                two, rec.wall_2blk_s = _timed(simulation.run, scenario, blocks=2)
            shutil.rmtree(scenario.output_dir)
            results.append(("2-block", two))
            if not same_fields(one.state, two.state):
                rec.failures.append("2-block fields differ from 1-block fields")
        for label, res in results:
            closure = res.balance.closure()
            if not closure <= 1e-6:
                rec.failures.append(f"{label} mass closure {closure:.3e} > 1e-6")
        for r0, r1, c0, c1 in BENCHES:
            if (one.maxima.max_h[r0 + 1 : r1 - 1, c0 + 1 : c1 - 1] != 0.0).any():
                rec.failures.append(f"bench interior rows {r0}-{r1} got wet")
        rec.fingerprints["valley_flood.h_hu_hv"] = field_digest(one.state)
        rec.extra.update(steps=one.steps, wet_frac=float((one.maxima.max_h > 0).mean()),
                         mass_closure=one.balance.closure())
        self._final = (one.state, scenario.params, scenario)
        return rec

    def residual_input(self):
        state, params, scenario = self._final
        _, spec, _ = simulation.assemble(scenario)
        apply_boundaries(state, spec, scenario.total_duration, params)
        return state, params


# --------------------------------------------------------------------------
# dam_break_wet: BlockEngine.step on a large, fully wet grid
# --------------------------------------------------------------------------


class DamBreakWet(Workload):
    """Flat-bed dam break, h = 1 | 0.1 everywhere wet, walls, Manning 0.03.
    The seed moves the dam."""

    name = "dam_break_wet"
    two_blocks = True
    params = PhysicalParams(manning_n=0.03)

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        n = sizes.dam_n
        rng = np.random.default_rng(seed)
        self.dam_col = n // 2 + int(rng.integers(-(n // 20), n // 20 + 1))
        self._final = None

    def _state(self) -> State:
        n = self.sizes.dam_n
        state = State(n, n, 1.0, 1.0, np.zeros((n, n)))
        state.h[INT][:, : self.dam_col] = 1.0
        state.h[INT][:, self.dam_col :] = 0.1
        return state

    def _setup(self, nblocks):
        return BlockEngine(self._state(), self.params, BoundarySpec.walls(), nblocks=nblocks)

    def _advance(self, engine):
        t = 0.0
        for _ in range(self.sizes.dam_steps):
            t += engine.step(t).dt
        return engine.gather()

    def op(self, tracer=None, tracer_2blk=None):
        setups = []
        for _ in range(self.sizes.setup_repeats - 1):
            engine, t_setup = _timed(self._setup, 1)
            engine.close()
            setups.append(t_setup)
        with tracer or nullcontext():
            engine, t_setup = _timed(self._setup, 1)
            with engine:
                one, wall = _timed(self._advance, engine)
        setups.append(t_setup)
        with tracer_2blk or nullcontext():
            with self._setup(2) as engine:
                two, wall2 = _timed(self._advance, engine)

        n = self.sizes.dam_n
        rec = OpRecord(setups, wall, wall2, cell_steps=n * n * self.sizes.dam_steps)
        if not same_fields(one, two):
            rec.failures.append("2-block fields differ from 1-block fields")
        v0 = self._state().total_volume()
        drift = abs(one.total_volume() - v0) / v0
        if not drift <= 1e-10:
            rec.failures.append(f"closed-basin volume drift {drift:.3e} > 1e-10")
        if not (one.h[INT] > 0.0).all():
            rec.failures.append("a cell dried out on the wet-bed workload")
        rec.fingerprints["dam_break_wet.h_hu_hv"] = field_digest(one)
        self._final = one
        return rec

    def residual_input(self):
        state = self._final
        apply_boundaries(state, BoundarySpec.walls(), 0.0, self.params)
        return state, self.params


# --------------------------------------------------------------------------
# ritter_strip: validate.report on 3-row strips through solver.rk2_step
# --------------------------------------------------------------------------


class _StepCounter:
    """Counts the cells stepped by validate's rk2_step calls; adds no timing."""

    def __init__(self):
        self.cell_steps = 0

    def __enter__(self):
        original = validate.rk2_step

        def counted(state, *args, **kwargs):
            self.cell_steps += state.nrows * state.ncols
            return original(state, *args, **kwargs)

        self._original = original
        validate.rk2_step = counted
        return self

    def __exit__(self, *exc):
        validate.rk2_step = self._original


class RitterStrip(Workload):
    """Dry dam break against Ritter's solution at n/2 and n cells.  The case
    is fixed by its name, so the seed changes nothing here."""

    name = "ritter_strip"

    def _setup(self):
        case = validate.build_case("ritter")
        n = self.sizes.ritter_n
        return validate.strip_state(case, n // 2), validate.strip_state(case, n)

    def op(self, tracer=None, tracer_2blk=None):
        setups = []
        # The strips are tiny: time many set-ups so their median is steady.
        for _ in range(20 * self.sizes.setup_repeats):
            setups.append(_timed(self._setup)[1])
        n = self.sizes.ritter_n
        cell_steps = None
        with tracer or nullcontext():
            if tracer is None:
                with _StepCounter() as counter:
                    (results, _), wall = _timed(validate.report, "ritter", n)
                cell_steps = counter.cell_steps
            else:
                (results, _), wall = _timed(validate.report, "ritter", n)
        coarse, fine = results
        rec = OpRecord(setups, wall, cell_steps=cell_steps)
        rec.extra.update(l1_error=fine.l1, order=validate.observed_order(coarse, fine))
        if not fine.l1 < self.sizes.ritter_l1_ceiling:
            rec.failures.append(
                f"L1 error {fine.l1:.4e} m at n={n} >= ceiling {self.sizes.ritter_l1_ceiling}"
            )
        digest = hashlib.sha256()
        for res in results:
            digest.update(" ".join(float.hex(v) for v in (res.l1, res.l2, res.linf)).encode())
        rec.fingerprints["ritter_strip.norms"] = digest.hexdigest()
        return rec

    def residual_input(self):
        state, _ = validate.strip_state(validate.build_case("ritter"), self.sizes.ritter_n)
        params = PhysicalParams()
        apply_boundaries(state, BoundarySpec.walls(), 0.0, params)
        return state, params


# --------------------------------------------------------------------------
# dsm_build: parse features, extrude them onto a terrain, write the DSM
# --------------------------------------------------------------------------

SELECTED_CLASSES = {10, 20, 30}


def dsm_inputs(rng, n: int, count: int) -> tuple[str, str]:
    """(DTM raster text, feature file text) on an n x n grid at 1 m cells."""
    y, x = np.mgrid[0:n, 0:n].astype(np.float64)
    phase = rng.uniform(0, 2 * math.pi, size=2)
    dtm = 10.0 + 2.0 * np.sin(x / 97.0 + phase[0]) + 1.5 * np.cos(y / 61.0 + phase[1])
    dtm_text = raster.write_ascii_grid(RasterGrid(n, n, 0.0, 0.0, 1.0, values=dtm))

    def coords(pts, zs):
        return ",".join(f"{px:.3f} {py:.3f} {pz:.2f}" for (px, py), pz in zip(pts, zs))

    lines = []
    kinds = rng.choice(["POINT", "LINE", "RING", "POLYGON", "OTHER"], size=count,
                       p=[0.35, 0.3, 0.05, 0.25, 0.05])
    for kind in kinds:
        center = rng.uniform(0.0, n, size=2)
        if kind == "POINT":
            lines.append(f"30;POINT;{coords([center], [rng.uniform(12, 30)])}")
        elif kind in ("LINE", "OTHER"):
            k = int(rng.integers(2, 5))
            pts = center + np.cumsum(rng.uniform(-8.0, 8.0, size=(k, 2)), axis=0)
            cls = 10 if kind == "LINE" else 99
            lines.append(f"{cls};LINE;{coords(pts, rng.uniform(12, 16, size=k))}")
        else:
            half = rng.uniform(2.0, 7.0, size=2)
            angle = rng.uniform(0.0, math.pi)
            rot = np.array([[math.cos(angle), -math.sin(angle)],
                            [math.sin(angle), math.cos(angle)]])
            box = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]]) * half
            pts = center + box @ rot.T
            height = rng.uniform(14, 30)
            if kind == "POLYGON":
                pts = np.vstack([pts, pts[0]])
                lines.append(f"20;POLYGON;{coords(pts, [height] * 5)}")
            else:
                # A footprint digitized as a line that stops just short of closing.
                pts = np.vstack([pts, pts[0] + 0.03])
                lines.append(f"10;LINE;{coords(pts, [height] * 5)}")
    return dtm_text, "\n".join(lines) + "\n"


class DsmBuild(Workload):
    """About 20k seeded points, walls, footprints and nearly closed rings,
    extruded onto a smooth seeded terrain and written as an ASCII grid."""

    name = "dsm_build"

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        rng = np.random.default_rng(seed)
        self.dtm_text, self.features_text = dsm_inputs(rng, sizes.dsm_n, sizes.dsm_features)

    def _setup(self):
        return (raster.read_ascii_grid(io.StringIO(self.dtm_text)),
                features.parse_features(io.StringIO(self.features_text)))

    def _build(self, dtm, parsed):
        dsm = rasterize.build_dsm(dtm, parsed, SELECTED_CLASSES)
        return dsm, raster.write_ascii_grid(dsm)

    def op(self, tracer=None, tracer_2blk=None):
        # The set-up reads a large raster, so one extra set-up per operation.
        setups = [_timed(self._setup)[1]]
        with tracer or nullcontext():
            (dtm, parsed), t_setup = _timed(self._setup)
            (dsm, text), wall = _timed(self._build, dtm, parsed)
        setups.append(t_setup)
        rec = OpRecord(setups, wall)
        if not (dsm.values >= dtm.values).all():
            rec.failures.append("DSM lies below the DTM")
        if not (dsm.values > dtm.values).any():
            rec.failures.append("no feature raised the terrain")
        rec.fingerprints["dsm_build.dsm_text"] = hashlib.sha256(text.encode()).hexdigest()
        rec.extra.update(features=len(parsed), raised_cells=int((dsm.values > dtm.values).sum()))
        return rec


WORKLOADS = {cls.name: cls for cls in (ValleyFlood, DamBreakWet, RitterStrip, DsmBuild)}

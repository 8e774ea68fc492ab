"""Tests for scenario configuration, the run driver, and checkpointing."""

import builtins
import errno
import io
import math

import numpy as np
import pytest

from swflood import raster
from swflood.raster import RasterGrid, atomic_open, load_raster, save_raster, write_ascii_grid
from swflood.simulation import (
    CHECKPOINT_MAGIC,
    ConfigError,
    Hydrograph,
    MassBalance,
    MaximaMaps,
    _event_schedule,
    _write_grid,
    _write_summary,
    load_checkpoint,
    load_scenario,
    read_hydrograph,
    run,
    save_checkpoint,
    scenario_discharge,
)
from swflood.solver import NumericalAbort
from swflood.state import INT, PhysicalParams, State


# --------------------------------------------------------------------------
# Hydrographs
# --------------------------------------------------------------------------


def test_hydrograph_interpolates_and_clamps():
    hg = Hydrograph(np.array([0.0, 3600.0]), np.array([1500.0, 3700.0]))
    # midpoint: 1500 + (3700 - 1500) / 2 = 2600
    assert hg.q_at(1800.0) == 2600.0
    assert hg.q_at(-5.0) == 1500.0
    assert hg.q_at(1e6) == 3700.0


def test_hydrograph_single_knot_is_constant():
    hg = Hydrograph(np.array([10.0]), np.array([4.0]))
    assert hg.q_at(0.0) == 4.0
    assert hg.q_at(100.0) == 4.0


@pytest.mark.parametrize("times, flows, fragment", [
    ([], [], "at least one"),
    ([0.0, 0.0], [1.0, 2.0], "strictly increasing"),
    ([0.0, 1.0], [1.0, -2.0], "nonnegative"),
    ([0.0], [1.0, 2.0], "at least one"),
])
def test_hydrograph_validation(times, flows, fragment):
    with pytest.raises(ValueError, match=fragment):
        Hydrograph(np.array(times), np.array(flows))


def test_read_hydrograph_comments_and_errors(tmp_path):
    hg = read_hydrograph(io.StringIO("# rising limb\n0 1.0\n\n10 3.0  # peak\n"))
    np.testing.assert_array_equal(hg.times, [0.0, 10.0])
    np.testing.assert_array_equal(hg.flows, [1.0, 3.0])
    path = tmp_path / "hydro.txt"
    path.write_text("0 1\n5 2\n")
    assert read_hydrograph(path).q_at(5.0) == 2.0
    with pytest.raises(ValueError, match="line 1: expected 't Q'"):
        read_hydrograph(io.StringIO("0 1 2\n"))
    with pytest.raises(ValueError, match="line 2: non-numeric"):
        read_hydrograph(io.StringIO("0 1\n5 x\n"))


@pytest.mark.parametrize("bad", ["5 nan", "5 inf", "5 -inf", "nan 1", "inf 1"])
def test_read_hydrograph_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="line 2: non-finite value"):
        read_hydrograph(io.StringIO(f"0 1\n{bad}\n"))


def test_scenario_discharge_two_phases():
    hg = Hydrograph(np.array([0.0, 10.0]), np.array([5.0, 15.0]))
    q = scenario_discharge(2.0, 20.0, hg)
    assert q(0.0) == 2.0
    assert q(19.999) == 2.0
    # the hydrograph clock starts when the spin-up ends
    assert q(20.0) == 5.0
    assert q(25.0) == 10.0
    assert q(100.0) == 15.0


# --------------------------------------------------------------------------
# Scenario files
# --------------------------------------------------------------------------


def write_config(tmp_path, body, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return path


BASE_CONFIG = """\
dsm = terrain.asc
output_dir = out
total_duration = 60
snapshot_interval = 20
"""


def test_load_scenario_paths_and_defaults(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "manning_n = 0.03\n")
    sc = load_scenario(path)
    assert sc.dsm_path == tmp_path / "terrain.asc"
    assert sc.output_dir == tmp_path / "out"
    assert sc.total_duration == 60.0
    assert sc.snapshot_interval == 20.0
    assert sc.params.manning_n == 0.03
    assert sc.params.g == 9.81
    assert sc.boundary_kinds == {k: "wall" for k in ("north", "south", "east", "west")}
    assert sc.riverbed_mask_path is None
    assert sc.spinup_q == 0.0 and sc.spinup_duration == 0.0
    assert not sc.nodata_walls


def test_load_scenario_absolute_path_kept(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "hydrograph = /data/h.txt\n"
                        "riverbed_mask = riv.txt\nboundary.west = discharge\n")
    sc = load_scenario(path)
    assert str(sc.hydrograph_path) == "/data/h.txt"
    assert sc.riverbed_mask_path == tmp_path / "riv.txt"


@pytest.mark.parametrize("extra, fragment", [
    ("color = blue\n", "unknown key"),
    ("total_duration = 99\n", "duplicate key"),
    ("cfl 0.4\n", "expected 'key = value'"),
    ("cfl = fast\n", "expected a number"),
    ("boundary.east = open\n", "expected one of"),
    ("spinup_duration = 90\n", r"spinup_duration must lie in \[0, total_duration\]"),
    ("boundary.east = discharge\nboundary.west = discharge\n"
     "riverbed_mask = m.txt\nhydrograph = h.txt\n", "at most one edge"),
    ("boundary.west = discharge\nhydrograph = h.txt\n", "riverbed_mask"),
    ("boundary.west = discharge\nriverbed_mask = m.txt\n", "hydrograph"),
    ("initial_h = -1\n", "initial_h must be nonnegative"),
    ("cfl = -0.5\n", "cfl must be positive"),
    ("nodata_walls = maybe\n", "expected a boolean"),
])
def test_load_scenario_rejects_bad_configs(tmp_path, extra, fragment):
    path = write_config(tmp_path, BASE_CONFIG + extra)
    with pytest.raises(ConfigError, match=fragment):
        load_scenario(path)


FLOAT_KEYS = ["g", "manning_n", "cfl", "h_dry", "dt_min", "dt_max", "spinup_q",
              "spinup_duration", "total_duration", "snapshot_interval", "initial_h"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_load_scenario_rejects_non_finite_numbers(tmp_path, key, value):
    lines = [line for line in BASE_CONFIG.splitlines() if not line.startswith(key + " ")]
    path = write_config(tmp_path, "\n".join(lines + [f"{key} = {value}"]) + "\n")
    with pytest.raises(ConfigError, match=f"key '{key}': expected a finite number"):
        load_scenario(path)


def test_load_scenario_missing_required_keys(tmp_path):
    path = write_config(tmp_path, "total_duration = 10\noutput_dir = out\n")
    with pytest.raises(ConfigError, match="missing required key 'dsm'"):
        load_scenario(path)
    with pytest.raises(ConfigError, match="cannot read config"):
        load_scenario(tmp_path / "absent.cfg")


def test_load_scenario_parses_booleans(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "nodata_walls = yes\n")
    assert load_scenario(path).nodata_walls


# --------------------------------------------------------------------------
# Maxima and balance bookkeeping
# --------------------------------------------------------------------------


def test_maxima_maps_track_peak_and_its_time():
    mm = MaximaMaps.zeros(1, 2)
    h = np.array([[1.0, 0.2]])
    mm.update(h, np.array([[3.0, 0.0]]), np.array([[4.0, 0.0]]), 1.0, 1e-10)
    mm.update(np.array([[0.5, 0.8]]), np.zeros((1, 2)), np.zeros((1, 2)), 2.0, 1e-10)
    np.testing.assert_array_equal(mm.max_h, [[1.0, 0.8]])
    np.testing.assert_array_equal(mm.time_of_max_h, [[1.0, 2.0]])
    # speed = hypot(u, v) = hypot(3, 4) = 5 at the first sample
    assert mm.max_speed[0, 0] == 5.0


def test_mass_balance_closure():
    assert MassBalance(100.0, inflow=10.0, outflow=5.0, final_volume=105.0).closure() == 0.0
    mb = MassBalance(100.0, inflow=10.0, outflow=5.0, final_volume=104.0)
    assert mb.closure() == pytest.approx(0.01, rel=1e-12)
    # closed basin: drift is measured against the stored volume, not 0/0
    drift = MassBalance(50.0, final_volume=49.0)
    assert drift.closure() == pytest.approx(0.02, rel=1e-12)


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------


def small_state(seed=40):
    rng = np.random.default_rng(seed)
    st = State(5, 6, 1.0, 1.0, rng.uniform(0.0, 0.2, size=(5, 6)))
    st.h[INT] = rng.uniform(0.0, 1.0, size=(5, 6))
    st.hu[INT] = rng.uniform(-1.0, 1.0, size=(5, 6))
    st.hv[INT] = rng.uniform(-1.0, 1.0, size=(5, 6))
    return st


def test_checkpoint_round_trip(tmp_path):
    st = small_state()
    params = PhysicalParams(manning_n=0.02)
    maxima = MaximaMaps.zeros(5, 6)
    maxima.update(st.h[INT], st.hu[INT], st.hv[INT], 3.5, params.h_dry)
    balance = MassBalance(initial_volume=12.5, inflow=3.0, outflow=1.0)
    path = tmp_path / "run.chk"
    save_checkpoint(path, st, params, 3.5, 17, maxima, balance, 4)

    fresh = small_state()
    fresh.h[INT] = 0.0
    fresh.hu[INT] = 0.0
    fresh.hv[INT] = 0.0
    t, step, maxima2, balance2, fallbacks = load_checkpoint(path, fresh, params)
    assert (t, step, fallbacks) == (3.5, 17, 4)
    np.testing.assert_array_equal(fresh.h[INT], st.h[INT])
    np.testing.assert_array_equal(fresh.hu[INT], st.hu[INT])
    np.testing.assert_array_equal(fresh.hv[INT], st.hv[INT])
    np.testing.assert_array_equal(maxima2.max_h, maxima.max_h)
    np.testing.assert_array_equal(maxima2.time_of_max_h, maxima.time_of_max_h)
    assert balance2.inflow == 3.0 and balance2.outflow == 1.0
    assert balance2.initial_volume == 12.5


def test_checkpoint_rejects_other_scenarios(tmp_path):
    st = small_state()
    params = PhysicalParams(manning_n=0.02)
    path = tmp_path / "run.chk"
    save_checkpoint(path, st, params, 0.0, 0, MaximaMaps.zeros(5, 6),
                    MassBalance(initial_volume=0.0), 0)
    with pytest.raises(ConfigError, match="different scenario"):
        load_checkpoint(path, st, PhysicalParams(manning_n=0.03))
    bumpy = small_state(seed=41)  # different topography, same shape
    with pytest.raises(ConfigError, match="different scenario"):
        load_checkpoint(path, bumpy, params)
    coupled = PhysicalParams(manning_n=0.02, friction_full_velocity=True)
    with pytest.raises(ConfigError, match="different scenario"):
        load_checkpoint(path, st, coupled)
    with pytest.raises(ConfigError, match="different scenario"):
        load_checkpoint(path, st, params, identity=b"another hydrograph")


def test_checkpoint_of_an_older_format_names_it(tmp_path):
    st = small_state()
    path = tmp_path / "run.chk"
    save_checkpoint(path, st, PhysicalParams(), 0.0, 0, MaximaMaps.zeros(5, 6),
                    MassBalance(initial_volume=0.0), 0)
    blob = path.read_bytes()
    assert blob.startswith(CHECKPOINT_MAGIC)
    for old in ("SWFCHK01", "SWFCHK02"):
        path.write_bytes(old.encode() + blob[len(CHECKPOINT_MAGIC):])
        with pytest.raises(ConfigError, match=f"has format {old}"):
            load_checkpoint(path, st, PhysicalParams())


def test_checkpoint_rejects_corrupt_files(tmp_path):
    st = small_state()
    params = PhysicalParams()
    path = tmp_path / "run.chk"
    save_checkpoint(path, st, params, 0.0, 0, MaximaMaps.zeros(5, 6),
                    MassBalance(initial_volume=0.0), 0)
    blob = path.read_bytes()
    truncated = tmp_path / "short.chk"
    truncated.write_bytes(blob[:-8])
    with pytest.raises(ConfigError, match="does not match the grid size"):
        load_checkpoint(truncated, st, params)
    garbage = tmp_path / "noise.chk"
    garbage.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ConfigError, match="not a checkpoint file"):
        load_checkpoint(garbage, st, params)


# --------------------------------------------------------------------------
# Event schedule
# --------------------------------------------------------------------------


def test_event_schedule_includes_spinup_and_snapshots():
    sc = scenario_stub(total=60.0, interval=25.0, spinup=20.0)
    events, snaps = _event_schedule(sc)
    assert events == [20.0, 25.0, 50.0, 60.0]
    assert snaps == {25.0, 50.0, 60.0}


def test_event_schedule_interval_dividing_total():
    sc = scenario_stub(total=60.0, interval=20.0, spinup=0.0)
    events, snaps = _event_schedule(sc)
    assert events == [20.0, 40.0, 60.0]
    assert snaps == {20.0, 40.0, 60.0}


def scenario_stub(total, interval, spinup):
    from swflood.simulation import Scenario
    from pathlib import Path

    return Scenario(
        dsm_path=Path("x.asc"), output_dir=Path("out"), total_duration=total,
        snapshot_interval=interval, boundary_kinds={}, riverbed_mask_path=None,
        hydrograph_path=None, spinup_q=0.0, spinup_duration=spinup,
        params=PhysicalParams(),
    )


# --------------------------------------------------------------------------
# End-to-end runs
# --------------------------------------------------------------------------


def make_scenario_files(tmp_path, extra="", outdir="out"):
    """A small sloped channel with west inflow and east outflow."""
    col = np.arange(10, dtype=np.float64)
    z = np.tile(0.02 * (9.0 - col), (8, 1))
    grid = RasterGrid(10, 8, 0.0, 0.0, 1.0, values=z)
    (tmp_path / "terrain.asc").write_text(write_ascii_grid(grid))
    (tmp_path / "riverbed.txt").write_text("3 0\n4 0\n")
    (tmp_path / "hydro.txt").write_text("0 1.0\n5 2.0\n")
    cfg = f"""\
dsm = terrain.asc
output_dir = {outdir}
total_duration = 4
snapshot_interval = 2
spinup_duration = 1
spinup_q = 0.5
boundary.west = discharge
boundary.east = free_outflow
riverbed_mask = riverbed.txt
hydrograph = hydro.txt
{extra}"""
    return write_config(tmp_path, cfg)


def summary_dict(outdir):
    text = (outdir / "summary.txt").read_text()
    return dict(line.split(" = ", 1) for line in text.strip().splitlines())


def test_run_produces_snapshots_maxima_and_summary(tmp_path):
    sc = load_scenario(make_scenario_files(tmp_path))
    res = run(sc)
    out = res.output_dir
    for stamp in ("000002", "000004"):
        for name in ("h", "u", "v"):
            assert (out / f"{name}_{stamp}.asc").exists()
    for name in ("max_h.asc", "max_speed.asc", "time_of_max_h.asc"):
        assert (out / name).exists()
    assert res.final_t == 4.0
    assert res.steps > 0
    assert res.balance.inflow > 0.0
    assert res.balance.closure() <= 1e-10
    summary = summary_dict(out)
    assert summary["status"] == "completed"
    assert int(summary["steps"]) == res.steps
    assert float(summary["mass_closure"]) == res.balance.closure()
    # the final snapshot equals the final state on disk
    snap = load_raster(out / "h_000004.asc")
    np.testing.assert_allclose(snap.values, res.state.h[INT], atol=1e-9)
    # maxima never fall below the final depth
    assert (res.maxima.max_h >= res.state.h[INT] - 1e-12).all()


def test_run_restart_matches_uninterrupted(tmp_path):
    sc_a = load_scenario(make_scenario_files(tmp_path, outdir="out_a"))
    res_a = run(sc_a)

    cp = tmp_path / "mid.chk"
    sc_b = load_scenario(make_scenario_files(tmp_path, outdir="out_b"))
    run(sc_b, checkpoint_time=2.0, checkpoint_path=cp)
    sc_c = load_scenario(make_scenario_files(tmp_path, outdir="out_c"))
    res_c = run(sc_c, restart_path=cp)

    np.testing.assert_array_equal(res_c.state.h[INT], res_a.state.h[INT])
    np.testing.assert_array_equal(res_c.state.hu[INT], res_a.state.hu[INT])
    np.testing.assert_array_equal(res_c.state.hv[INT], res_a.state.hv[INT])
    np.testing.assert_array_equal(res_c.maxima.max_h, res_a.maxima.max_h)
    assert res_c.steps == res_a.steps
    assert res_c.balance.inflow == res_a.balance.inflow
    assert res_c.balance.outflow == res_a.balance.outflow
    assert res_c.final_t == res_a.final_t


@pytest.mark.parametrize("name, old, new", [
    ("hydro.txt", "5 2.0", "5 2.5"),
    ("riverbed.txt", "3 0\n4 0\n", "4 0\n5 0\n"),
    ("scenario.cfg", "spinup_q = 0.5", "spinup_q = 0.6"),
    ("scenario.cfg", "spinup_duration = 1", "spinup_duration = 1.5"),
    ("scenario.cfg", "boundary.east = free_outflow", "boundary.east = wall"),
    ("scenario.cfg", "total_duration = 4", "total_duration = 6"),
    ("scenario.cfg", "snapshot_interval = 2", "snapshot_interval = 1"),
])
def test_run_restart_refuses_a_changed_scenario(tmp_path, name, old, new):
    cp = tmp_path / "mid.chk"
    cfg = make_scenario_files(tmp_path, outdir="out_b")
    run(load_scenario(cfg), checkpoint_time=2.0, checkpoint_path=cp)
    edited = tmp_path / name
    assert old in edited.read_text()
    edited.write_text(edited.read_text().replace(old, new))
    with pytest.raises(ConfigError, match="different scenario"):
        run(load_scenario(cfg), restart_path=cp)


def test_run_blocked_matches_serial(tmp_path):
    res1 = run(load_scenario(make_scenario_files(tmp_path, outdir="out_1")))
    res2 = run(load_scenario(make_scenario_files(tmp_path, outdir="out_2")), blocks=2)
    np.testing.assert_array_equal(res2.state.h[INT], res1.state.h[INT])
    np.testing.assert_array_equal(res2.state.hu[INT], res1.state.hu[INT])
    assert res2.balance.inflow == res1.balance.inflow
    assert res2.balance.outflow == res1.balance.outflow
    assert res2.steps == res1.steps


def test_run_checkpoint_argument_validation(tmp_path):
    sc = load_scenario(make_scenario_files(tmp_path))
    with pytest.raises(ConfigError, match="checkpoint_path"):
        run(sc, checkpoint_time=2.0)
    with pytest.raises(ConfigError, match="snapshot boundary"):
        run(sc, checkpoint_time=1.7, checkpoint_path=tmp_path / "x.chk")


def test_run_abort_writes_last_good_state(tmp_path):
    # dt_min above the CFL step forces an abort on the first step
    sc = load_scenario(make_scenario_files(
        tmp_path, extra="initial_h = 1\ndt_min = 1\ndt_max = 10\n"))
    with pytest.raises(NumericalAbort, match="dt_min"):
        run(sc)
    out = sc.output_dir
    assert (out / "h_abort_000000.asc").exists()
    assert summary_dict(out)["status"] == "aborted"


# --------------------------------------------------------------------------
# Atomic outputs
# --------------------------------------------------------------------------


class HalfWriter:
    """File wrapper that stores half of the first write, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def assert_write_fails_and_keeps(path, write, monkeypatch):
    """``write`` must raise partway, leaving ``path`` and its directory as they were."""
    before = path.read_bytes()
    listing = sorted(path.parent.iterdir())
    with monkeypatch.context() as m:
        m.setattr(raster, "open", lambda *a, **k: HalfWriter(builtins.open(*a, **k)),
                  raising=False)
        with pytest.raises(OSError, match="No space left"):
            write()
    assert path.read_bytes() == before
    assert sorted(path.parent.iterdir()) == listing


def test_atomic_open_replaces_only_on_a_clean_exit(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("new, partial")
            raise RuntimeError("writer failed")
    assert path.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [path]
    with atomic_open(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert list(tmp_path.iterdir()) == [path]


def test_failed_writes_keep_every_previous_output(tmp_path, monkeypatch):
    grid = RasterGrid(3, 2, 0.0, 0.0, 1.0, values=np.arange(6.0).reshape(2, 3))
    other = np.full((2, 3), 7.5)

    asc = tmp_path / "dsm.asc"
    save_raster(asc, grid)
    assert_write_fails_and_keeps(asc, lambda: save_raster(asc, RasterGrid(
        3, 2, 0.0, 0.0, 1.0, values=other)), monkeypatch)

    snap = tmp_path / "h_000002.asc"
    _write_grid(snap, grid, grid.values)
    assert_write_fails_and_keeps(snap, lambda: _write_grid(snap, grid, other), monkeypatch)

    balance = MassBalance(initial_volume=1.0, inflow=2.0, final_volume=3.0)
    _write_summary(tmp_path, "completed", 5, 2.0, balance, 0, 1)
    assert_write_fails_and_keeps(
        tmp_path / "summary.txt",
        lambda: _write_summary(tmp_path, "aborted", 9, 4.0, balance, 1, 2), monkeypatch)

    st = small_state()
    params = PhysicalParams()
    chk = tmp_path / "run.chk"
    save_checkpoint(chk, st, params, 1.0, 3, MaximaMaps.zeros(5, 6),
                    MassBalance(initial_volume=0.0), 0)
    st.h[INT] += 1.0
    assert_write_fails_and_keeps(chk, lambda: save_checkpoint(
        chk, st, params, 2.0, 6, MaximaMaps.zeros(5, 6),
        MassBalance(initial_volume=0.0), 0), monkeypatch)
    fresh = small_state()
    assert load_checkpoint(chk, fresh, params)[:2] == (1.0, 3)
    np.testing.assert_array_equal(fresh.h[INT], small_state().h[INT])

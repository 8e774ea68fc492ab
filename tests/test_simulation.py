"""Tests for scenario configuration, the run driver, and checkpointing."""

import builtins
import errno
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from swflood import raster
from swflood.raster import (
    RasterGrid,
    atomic_open,
    load_raster,
    read_input,
    save_raster,
    write_ascii_grid,
)
from swflood.simulation import (
    CHECKPOINT_MAGIC,
    SNAPSHOT_PRECISION,
    ConfigError,
    Hydrograph,
    MassBalance,
    MaximaMaps,
    _event_schedule,
    _load_checkpoint,
    _restart_digest,
    _save_checkpoint,
    _write_summary,
    assemble,
    load_scenario,
    read_hydrograph,
    run,
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


@pytest.mark.parametrize("times, flows, field", [
    ([0.0, 1.0], [1.0, math.nan], "flows"),
    ([0.0, 1.0], [math.inf, 1.0], "flows"),
    ([0.0, math.inf], [1.0, 2.0], "times"),
    ([math.nan, 1.0], [1.0, 2.0], "times"),
])
def test_hydrograph_rejects_non_finite_knots(times, flows, field):
    with pytest.raises(ValueError, match=f"hydrograph {field} must be finite"):
        Hydrograph(times, flows)


def test_read_hydrograph_comments_and_errors(tmp_path):
    hg = read_hydrograph(io.StringIO("# rising limb\n0 1.0\n\n10 3.0  # peak\n"))
    np.testing.assert_array_equal(hg.times, [0.0, 10.0])
    np.testing.assert_array_equal(hg.flows, [1.0, 3.0])
    assert read_hydrograph("0 1\n5 2\n").q_at(5.0) == 2.0
    path = tmp_path / "hydro.txt"
    path.write_text("0 1\n5 2\n")
    assert read_input(path, read_hydrograph).q_at(5.0) == 2.0
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
    assert sc.riverbed_cells is None and sc.hydrograph is None
    assert sc.spinup_q == 0.0 and sc.spinup_duration == 0.0
    assert not sc.nodata_walls


def test_load_scenario_absolute_path_kept(tmp_path):
    # The absolute hydrograph path lies outside the config's directory; a
    # decoy with the same name beside the config must not be read.
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    (elsewhere / "h.txt").write_text("0 1\n10 3\n")
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    (cfg_dir / "h.txt").write_text("0 7\n")
    (cfg_dir / "riv.txt").write_text("2 0\n3 0\n")
    path = write_config(cfg_dir, BASE_CONFIG + f"hydrograph = {elsewhere / 'h.txt'}\n"
                        "riverbed_mask = riv.txt\nboundary.west = discharge\n")
    sc = load_scenario(path)
    np.testing.assert_array_equal(sc.hydrograph.times, [0.0, 10.0])
    np.testing.assert_array_equal(sc.hydrograph.flows, [1.0, 3.0])
    assert sc.riverbed_cells == [(2, 0), (3, 0)]


@pytest.mark.parametrize("name, text, message", [
    ("h.txt", "0 1\n5 x\n", "hydrograph line 2: non-numeric value in '5 x'"),
    ("h.txt", "0 1\n0 2\n", "hydrograph times must be strictly increasing"),
    ("m.txt", "3 0\nnorth 0\n", "line 2: bad cell index in 'north 0'"),
], ids=["hydrograph-line", "hydrograph-series", "mask"])
def test_load_scenario_reads_and_checks_the_inflow_files(tmp_path, name, text, message):
    # The DSM named by BASE_CONFIG does not exist: the inflow files are read
    # and checked when the scenario loads, before anything reads the DSM.
    (tmp_path / "h.txt").write_text("0 1\n5 2\n")
    (tmp_path / "m.txt").write_text("3 0\n")
    (tmp_path / name).write_text(text)
    path = write_config(tmp_path, BASE_CONFIG + "boundary.west = discharge\n"
                        "hydrograph = h.txt\nriverbed_mask = m.txt\n")
    with pytest.raises(ConfigError) as info:
        load_scenario(path)
    assert str(info.value) == f"{tmp_path / name}: {message}"
    (tmp_path / name).unlink()
    with pytest.raises(ConfigError, match=f"cannot read .* {tmp_path / name}"):
        load_scenario(path)


def test_load_scenario_takes_the_physical_parameter_defaults(tmp_path):
    assert load_scenario(write_config(tmp_path, BASE_CONFIG)).params == PhysicalParams()
    values = {"g": 9.5, "manning_n": 0.025, "cfl": 0.45, "h_dry": 1e-9,
              "dt_min": 1e-6, "dt_max": 4.0}
    for key, value in values.items():
        sc = load_scenario(write_config(tmp_path, BASE_CONFIG + f"{key} = {value!r}\n"))
        assert sc.params == replace(PhysicalParams(), **{key: value})


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


@pytest.mark.parametrize("key", ["hydrograph", "riverbed_mask"])
def test_load_scenario_rejects_an_inflow_file_without_a_discharge_edge(tmp_path, key):
    # Neither file exists: the key is refused before anything reads it.
    path = write_config(tmp_path, BASE_CONFIG + f"{key} = missing.txt\n"
                        "boundary.east = free_outflow\n")
    with pytest.raises(ConfigError, match=f"key '{key}' needs an edge set to 'discharge'"):
        load_scenario(path)


def test_load_scenario_rejects_an_empty_riverbed_mask(tmp_path):
    cfg = make_scenario_files(tmp_path)
    mask = tmp_path / "riverbed.txt"
    mask.write_text("# the river is yet to be mapped\n")
    with pytest.raises(ConfigError) as info:
        load_scenario(cfg)
    assert str(info.value) == f"{mask}: no riverbed cells"


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


# Any 32 bytes serve as the digest of the format tests.
DIGEST = bytes(range(32))


def test_checkpoint_round_trip(tmp_path):
    st = small_state()
    params = PhysicalParams(manning_n=0.02)
    maxima = MaximaMaps.zeros(5, 6)
    maxima.update(st.h[INT], st.hu[INT], st.hv[INT], 3.5, params.h_dry)
    balance = MassBalance(initial_volume=12.5, inflow=3.0, outflow=1.0)
    path = tmp_path / "run.chk"
    _save_checkpoint(path, st, DIGEST, 3.5, 17, maxima, balance, 4)

    fresh = small_state()
    fresh.h[INT] = 0.0
    fresh.hu[INT] = 0.0
    fresh.hv[INT] = 0.0
    t, step, maxima2, balance2, fallbacks = _load_checkpoint(path, fresh, DIGEST)
    assert (t, step, fallbacks) == (3.5, 17, 4)
    np.testing.assert_array_equal(fresh.h[INT], st.h[INT])
    np.testing.assert_array_equal(fresh.hu[INT], st.hu[INT])
    np.testing.assert_array_equal(fresh.hv[INT], st.hv[INT])
    np.testing.assert_array_equal(maxima2.max_h, maxima.max_h)
    np.testing.assert_array_equal(maxima2.time_of_max_h, maxima.time_of_max_h)
    assert balance2.inflow == 3.0 and balance2.outflow == 1.0
    assert balance2.initial_volume == 12.5


def test_restart_digest_is_pinned(tmp_path):
    # The digest earlier builds of the SWFCHK03 format wrote for this
    # scenario; a change here makes their checkpoints refuse to load.
    sc = load_scenario(make_scenario_files(tmp_path))
    state, spec, _ = assemble(sc)
    assert _restart_digest(sc, state, spec).hex() == (
        "ada8a365d06108db77a8978264bb2cf365c2174a996fc3fb8425471b43ec3864"
    )


def test_checkpoint_rejects_other_scenarios(tmp_path):
    sc = load_scenario(make_scenario_files(tmp_path))
    state, spec, _ = assemble(sc)
    digest = _restart_digest(sc, state, spec)
    bumpy = state.copy()  # different topography, same shape
    bumpy.z[INT][3, 4] += 0.25
    others = [
        _restart_digest(replace(sc, params=replace(sc.params, manning_n=0.03)), state, spec),
        _restart_digest(replace(sc, params=replace(sc.params, friction_full_velocity=True)),
                        state, spec),
        _restart_digest(sc, bumpy, spec),
    ]
    assert len({digest, *others}) == 4

    path = tmp_path / "run.chk"
    _save_checkpoint(path, state, digest, 0.0, 0, MaximaMaps.zeros(8, 10),
                     MassBalance(initial_volume=0.0), 0)
    for other in others:
        with pytest.raises(ConfigError, match="different scenario"):
            _load_checkpoint(path, state, other)
    assert _load_checkpoint(path, state, digest)[:2] == (0.0, 0)


def test_checkpoint_of_an_older_format_names_it(tmp_path):
    st = small_state()
    path = tmp_path / "run.chk"
    _save_checkpoint(path, st, DIGEST, 0.0, 0, MaximaMaps.zeros(5, 6),
                     MassBalance(initial_volume=0.0), 0)
    blob = path.read_bytes()
    assert blob.startswith(CHECKPOINT_MAGIC)
    for old in ("SWFCHK01", "SWFCHK02"):
        path.write_bytes(old.encode() + blob[len(CHECKPOINT_MAGIC):])
        with pytest.raises(ConfigError, match=f"has format {old}"):
            _load_checkpoint(path, st, DIGEST)


def test_checkpoint_rejects_corrupt_files(tmp_path):
    st = small_state()
    path = tmp_path / "run.chk"
    _save_checkpoint(path, st, DIGEST, 0.0, 0, MaximaMaps.zeros(5, 6),
                     MassBalance(initial_volume=0.0), 0)
    blob = path.read_bytes()
    truncated = tmp_path / "short.chk"
    truncated.write_bytes(blob[:-8])
    with pytest.raises(ConfigError, match="does not match the grid size"):
        _load_checkpoint(truncated, st, DIGEST)
    garbage = tmp_path / "noise.chk"
    garbage.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ConfigError, match="not a checkpoint file"):
        _load_checkpoint(garbage, st, DIGEST)


@pytest.mark.parametrize("length", [0, 3, 8, 20, 40, 50, 72, 103])
def test_checkpoint_cut_inside_its_header_names_the_file(tmp_path, length):
    # The header is the 8-byte magic, the 32-byte digest and 64 bytes of
    # step, time, grid size and balance; a cut anywhere in it is refused.
    st = small_state()
    path = tmp_path / "run.chk"
    _save_checkpoint(path, st, DIGEST, 0.0, 0, MaximaMaps.zeros(5, 6),
                     MassBalance(initial_volume=0.0), 0)
    cut = tmp_path / "cut.chk"
    cut.write_bytes(path.read_bytes()[:length])
    with pytest.raises(ConfigError, match=str(cut)):
        _load_checkpoint(cut, st, DIGEST)


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
        snapshot_interval=interval, boundary_kinds={}, spinup_q=0.0, spinup_duration=spinup,
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


def test_sub_second_snapshots_each_get_their_own_files(tmp_path):
    # Whole-second names would give t = 1.5 and t = 2.0 the same h_000002.asc.
    def scenario(total, outdir):
        cfg = make_scenario_files(tmp_path, outdir=outdir)
        text = cfg.read_text()
        for old, new in (("total_duration = 4", f"total_duration = {total}"),
                         ("snapshot_interval = 2", "snapshot_interval = 0.5"),
                         ("spinup_duration = 1", "spinup_duration = 0")):
            text = text.replace(old, new)
        cfg.write_text(text)
        return load_scenario(cfg)

    out = run(scenario(2, "out")).output_dir
    stamps = ("000000.5", "000001.0", "000001.5", "000002.0")
    assert sorted(p.name for p in out.glob("h_*.asc")) == [f"h_{s}.asc" for s in stamps]
    # A run stopped at a snapshot time takes the same steps up to it, so its
    # last snapshot is the state at that time.
    for total, stamp in zip((0.5, 1, 1.5, 2), stamps):
        short = run(scenario(total, f"out_{total}")).output_dir
        for name in ("h", "u", "v"):
            last = sorted(short.glob(f"{name}_*.asc"))[-1]
            assert (out / f"{name}_{stamp}.asc").read_bytes() == last.read_bytes()


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


def test_run_reads_no_inflow_file_after_the_scenario_loads(tmp_path):
    res_kept = run(load_scenario(make_scenario_files(tmp_path, outdir="out_kept")))
    cfg = make_scenario_files(tmp_path, outdir="out_gone")
    sc = load_scenario(cfg)
    (tmp_path / "hydro.txt").unlink()
    (tmp_path / "riverbed.txt").unlink()
    cp = tmp_path / "mid.chk"
    res_gone = run(sc, checkpoint_time=2.0, checkpoint_path=cp)
    for field in ("h", "hu", "hv"):
        np.testing.assert_array_equal(getattr(res_gone.state, field),
                                      getattr(res_kept.state, field))
    kept, gone = res_kept.output_dir, res_gone.output_dir
    names = sorted(p.name for p in kept.iterdir())
    assert "summary.txt" in names and "max_h.asc" in names
    assert sorted(p.name for p in gone.iterdir()) == names
    for name in names:
        assert (gone / name).read_bytes() == (kept / name).read_bytes(), name
    assert run(sc, restart_path=cp).final_t == 4.0

    # The checkpoint still records the hydrograph it was written with.
    (tmp_path / "hydro.txt").write_text("0 1.0\n5 2.5\n")
    (tmp_path / "riverbed.txt").write_text("3 0\n4 0\n")
    other = load_scenario(cfg)
    (tmp_path / "hydro.txt").unlink()
    (tmp_path / "riverbed.txt").unlink()
    with pytest.raises(ConfigError, match="different scenario"):
        run(other, restart_path=cp)


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
    save_raster(snap, grid, SNAPSHOT_PRECISION)
    assert_write_fails_and_keeps(snap, lambda: save_raster(
        snap, replace(grid, values=other), SNAPSHOT_PRECISION), monkeypatch)

    balance = MassBalance(initial_volume=1.0, inflow=2.0, final_volume=3.0)
    _write_summary(tmp_path, "completed", 5, 2.0, balance, 0, 1)
    assert_write_fails_and_keeps(
        tmp_path / "summary.txt",
        lambda: _write_summary(tmp_path, "aborted", 9, 4.0, balance, 1, 2), monkeypatch)

    st = small_state()
    chk = tmp_path / "run.chk"
    _save_checkpoint(chk, st, DIGEST, 1.0, 3, MaximaMaps.zeros(5, 6),
                     MassBalance(initial_volume=0.0), 0)
    st.h[INT] += 1.0
    assert_write_fails_and_keeps(chk, lambda: _save_checkpoint(
        chk, st, DIGEST, 2.0, 6, MaximaMaps.zeros(5, 6),
        MassBalance(initial_volume=0.0), 0), monkeypatch)
    fresh = small_state()
    assert _load_checkpoint(chk, fresh, DIGEST)[:2] == (1.0, 3)
    np.testing.assert_array_equal(fresh.h[INT], small_state().h[INT])

"""Tests for the command-line interface: parsing, exit codes, workflows."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from swflood import raster, solver
from swflood.cli import UsageError, main, parse_args
from swflood.features import parse_features, read_class_selection
from swflood.raster import RasterGrid, load_raster, read_ascii_grid, read_input, write_ascii_grid
from swflood.simulation import load_scenario
from full_disk import half_writing_open
from scenes import read_summary, write_channel_scenario


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------


def test_parse_run_command():
    ns = parse_args(["run", "--config", "s.cfg", "--blocks", "4"])
    assert vars(ns) == {"command": "run", "config": Path("s.cfg"), "blocks": 4}
    assert parse_args(["run", "--config", "s.cfg"]).blocks == 1


def test_parse_build_dsm_command():
    ns = parse_args(["build-dsm", "--dtm", "a.asc", "--features", "f.txt",
                     "--classes", "c.txt", "--out", "d.asc"])
    assert vars(ns) == {"command": "build-dsm", "dtm": Path("a.asc"),
                        "features": Path("f.txt"), "classes": Path("c.txt"),
                        "out": Path("d.asc"), "close_tolerance": 0.1}
    custom = parse_args(["build-dsm", "--dtm", "a.asc", "--features", "f.txt",
                         "--classes", "c.txt", "--out", "d.asc",
                         "--close-tolerance", "0.25"])
    assert custom.close_tolerance == 0.25


def test_parse_validate_command():
    ns = parse_args(["validate", "--case", "ritter", "--n", "400"])
    assert vars(ns) == {"command": "validate", "case": "ritter", "n": 400, "report": None}


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["run"],
    ["run", "--config", "s.cfg", "--unknown"],
    ["run", "--config", "s.cfg", "--blocks", "0"],
    ["validate", "--case", "bogus", "--n", "100"],
    ["validate", "--case", "ritter", "--n", "5"],
    ["build-dsm", "--dtm", "a", "--features", "f", "--classes", "c",
     "--out", "d", "--close-tolerance", "-1"],
    ["build-dsm", "--dtm", "a", "--features", "f", "--classes", "c",
     "--out", "d", "--close-tolerance", "nan"],
    ["build-dsm", "--dtm", "a", "--features", "f", "--classes", "c",
     "--out", "d", "--close-tolerance", "inf"],
])
def test_parse_rejects_bad_usage(argv):
    with pytest.raises(UsageError):
        parse_args(argv)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "build-dsm" in capsys.readouterr().out


def test_bad_usage_exits_one(capsys):
    assert main(["run"]) == 1
    assert "error" in capsys.readouterr().err


# --------------------------------------------------------------------------
# Workflows end to end
# --------------------------------------------------------------------------


def test_run_workflow_exit_zero(tmp_path):
    cfg = write_channel_scenario(tmp_path)
    assert main(["run", "--config", str(cfg), "--blocks", "2"]) == 0
    assert (tmp_path / "out" / "h_000004.asc").exists()
    summary = read_summary(tmp_path / "out")
    assert summary["status"] == "completed"
    assert summary["blocks"] == "2"


def test_run_workflow_blocks_default_to_one(tmp_path):
    cfg = write_channel_scenario(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    assert read_summary(tmp_path / "out")["blocks"] == "1"


def test_run_on_many_strips_writes_the_same_bytes_at_two_blocks(tmp_path, monkeypatch):
    # The channel's 8 rows fit one strip, which runs inline at any --blocks;
    # strips of 2 padded rows of 14 cells make 4, so 2 blocks use the pool.
    monkeypatch.setattr(solver, "_STRIP_CELLS", 2 * 14)
    counts, strips = [], solver._strips

    def counted(*args):
        out = strips(*args)
        counts.append(len(out))
        return out

    monkeypatch.setattr(solver, "_strips", counted)
    outs = {}
    for blocks in ("1", "2"):
        cfg = write_channel_scenario(tmp_path, outdir=f"out_{blocks}")
        assert main(["run", "--config", str(cfg), "--blocks", blocks]) == 0
        outs[blocks] = tmp_path / f"out_{blocks}"
    assert max(counts) == 4
    names = sorted(p.name for p in outs["1"].iterdir())
    assert sorted(p.name for p in outs["2"].iterdir()) == names
    assert "max_h.asc" in names and "h_000004.asc" in names
    for name in names:
        if name != "summary.txt":
            assert (outs["2"] / name).read_bytes() == (outs["1"] / name).read_bytes(), name
    one, two = read_summary(outs["1"]), read_summary(outs["2"])
    assert (one.pop("blocks"), two.pop("blocks")) == ("1", "2")
    assert two == one


def test_run_of_a_discharge_whose_square_underflows_exits_zero(tmp_path):
    # The unit discharge's square underflows to 0 during spin-up.
    cfg = write_channel_scenario(tmp_path)
    text = cfg.read_text(encoding="utf-8").replace("spinup_q = 0.5", "spinup_q = 1e-170")
    assert "spinup_q = 1e-170" in text
    cfg.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 0


def test_run_missing_dsm_exits_one(tmp_path):
    cfg = write_channel_scenario(tmp_path)
    (tmp_path / "terrain.asc").unlink()
    assert main(["run", "--config", str(cfg)]) == 1


def test_run_numerical_abort_exits_two(tmp_path):
    # dt_min above the CFL step aborts the first step
    cfg = write_channel_scenario(tmp_path, extra="initial_h = 1\ndt_min = 1\ndt_max = 10\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert read_summary(tmp_path / "out")["status"] == "aborted"


def test_build_dsm_workflow_round_trip(tmp_path):
    from swflood.features import parse_features
    from swflood.rasterize import build_dsm

    dtm = RasterGrid(6, 6, 0.0, 0.0, 1.0, values=np.zeros((6, 6)))
    (tmp_path / "dtm.asc").write_text(write_ascii_grid(dtm), encoding="utf-8")
    feature_text = "10;LINE;0.5 2.5 2,4.5 2.5 2\n20;POINT;1.5 4.5 7\n"
    (tmp_path / "features.txt").write_text(feature_text, encoding="utf-8")
    (tmp_path / "classes.txt").write_text("10\n20\n", encoding="utf-8")
    out = tmp_path / "dsm.asc"
    assert main(["build-dsm", "--dtm", str(tmp_path / "dtm.asc"),
                 "--features", str(tmp_path / "features.txt"),
                 "--classes", str(tmp_path / "classes.txt"),
                 "--out", str(out)]) == 0
    written = load_raster(out)
    expected = build_dsm(dtm, parse_features(feature_text), {10, 20})
    np.testing.assert_array_equal(written.values, expected.values)
    # the hand trace: y = 2.5 lands on row 3, the point on row 1
    assert (written.values[3, 0:5] == 2.0).all()
    assert written.values[1, 1] == 7.0


def test_build_dsm_bad_features_exits_one(tmp_path):
    dtm = RasterGrid(4, 4, 0.0, 0.0, 1.0, values=np.zeros((4, 4)))
    (tmp_path / "dtm.asc").write_text(write_ascii_grid(dtm), encoding="utf-8")
    (tmp_path / "features.txt").write_text("10;BLOB;0 0 0\n", encoding="utf-8")
    (tmp_path / "classes.txt").write_text("10\n", encoding="utf-8")
    assert main(["build-dsm", "--dtm", str(tmp_path / "dtm.asc"),
                 "--features", str(tmp_path / "features.txt"),
                 "--classes", str(tmp_path / "classes.txt"),
                 "--out", str(tmp_path / "d.asc")]) == 1


def run_cli_process(args):
    """Run the CLI in a fresh interpreter, so stderr shows any traceback."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-m", "swflood.cli", *args],
                          capture_output=True, encoding="utf-8", env=env, timeout=120)


@pytest.mark.parametrize("bad", ["inf", "nan", "-3"])
def test_build_dsm_on_a_bad_dtm_header_exits_one_without_traceback(tmp_path, bad):
    dtm = RasterGrid(4, 4, 0.0, 0.0, 1.0, values=np.zeros((4, 4)))
    text = write_ascii_grid(dtm).replace("ncols 4\n", f"ncols {bad}\n")
    (tmp_path / "dtm.asc").write_text(text, encoding="utf-8")
    (tmp_path / "features.txt").write_text("10;POINT;1.5 1.5 7\n", encoding="utf-8")
    (tmp_path / "classes.txt").write_text("10\n", encoding="utf-8")
    proc = run_cli_process(["build-dsm",
                            "--dtm", str(tmp_path / "dtm.asc"),
                            "--features", str(tmp_path / "features.txt"),
                            "--classes", str(tmp_path / "classes.txt"),
                            "--out", str(tmp_path / "d.asc")])
    assert proc.returncode == 1
    assert f"ncols/nrows must be finite positive integers, got ncols {bad}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "d.asc").exists()


@pytest.mark.parametrize("old, new, message", [
    ("xllcorner 0", "xllcorner nan", "xllcorner must be finite, got nan"),
    ("xllcorner 0", "xllcorner inf", "xllcorner must be finite, got inf"),
    ("cellsize 1", "cellsize inf", "cellsize must be finite, got inf"),
])
def test_build_dsm_on_a_non_finite_dtm_georeference_exits_one(tmp_path, old, new, message):
    argv = write_build_inputs(tmp_path)
    # A nearly closed LINE becomes a polygon, whose fill reads the origin.
    (tmp_path / "features.txt").write_text(
        "10;LINE;0.5 0.5 2,3.5 0.5 2,3.5 3.5 2,0.55 0.5 2\n", encoding="utf-8")
    path = tmp_path / "dtm.asc"
    text = path.read_text(encoding="utf-8")
    assert old + "\n" in text
    path.write_text(text.replace(old + "\n", new + "\n"), encoding="utf-8")
    proc = run_cli_process(argv)
    assert proc.returncode == 1
    assert f"{path}: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not (tmp_path / "d.asc").exists()


@pytest.mark.parametrize("file, old, new, message", [
    ("scenario.cfg", "total_duration = 4", "total_duration = nan",
     "key 'total_duration': expected a finite number, got 'nan'"),
    ("hydro.txt", "5 2.0", "5 nan", "hydrograph line 2: non-finite value in '5 nan'"),
], ids=["config", "hydrograph"])
def test_run_on_a_non_finite_number_exits_one_without_traceback(tmp_path, file, old,
                                                                 new, message):
    cfg = write_channel_scenario(tmp_path)
    path = tmp_path / file
    path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    proc = run_cli_process(["run", "--config", str(cfg)])
    assert proc.returncode == 1
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out" / "summary.txt").exists()


@pytest.mark.parametrize("file, old, new, message", [
    ("dtm.asc", "12 13 14 15", "12 1_000 14 0x", "non-numeric value '0x' at row 3, col 3"),
    ("features.txt", "1.5 1.5 7", "1.5 1.5 7,", "line 1: vertex 1 must be 'x y z', got ''"),
    ("classes.txt", "10", "ten", "line 1: bad class id 'ten'"),
], ids=["dtm", "features", "classes"])
def test_build_dsm_on_a_malformed_input_exits_one_without_traceback(tmp_path, file, old,
                                                                     new, message):
    argv = write_build_inputs(tmp_path)
    path = tmp_path / file
    path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    proc = run_cli_process(argv)
    assert proc.returncode == 1
    assert f"{path}: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "d.asc").exists()


def test_build_dsm_reads_an_empty_selection_before_the_other_inputs(tmp_path, caplog):
    # The feature file does not exist: the empty selection fails first.
    argv = write_build_inputs(tmp_path)
    (tmp_path / "features.txt").unlink()
    (tmp_path / "classes.txt").write_text("# nothing selected yet\n", encoding="utf-8")
    assert main(argv) == 1
    assert f"{tmp_path / 'classes.txt'}: class selection is empty" in caplog.text
    assert "features.txt" not in caplog.text
    assert not (tmp_path / "d.asc").exists()


BOM = "\ufeff".encode()


def test_inputs_that_start_with_a_byte_order_mark_read_as_without_one(tmp_path):
    argv = write_build_inputs(tmp_path)
    (tmp_path / "features.txt").write_text("10;POINT;1.5 1.5 7\n20;LINE;0 0 1,3 3 2\n",
                                           encoding="utf-8")
    (tmp_path / "classes.txt").write_text("10\n20\n", encoding="utf-8")
    write_channel_scenario(tmp_path)

    def feature_columns(path):
        table = read_input(path, parse_features)
        return [a.tobytes() for a in (table.class_ids, table.kinds, table.offsets, table.vertices)]

    readers = {"dtm.asc": lambda path: read_input(path, read_ascii_grid).values.tobytes(),
               "features.txt": feature_columns,
               "classes.txt": lambda path: read_input(path, read_class_selection),
               "scenario.cfg": lambda path: repr(load_scenario(path))}
    plain = {name: read(tmp_path / name) for name, read in readers.items()}
    assert main(argv) == 0
    dsm = (tmp_path / "d.asc").read_bytes()
    for name in readers:
        path = tmp_path / name
        path.write_bytes(BOM + path.read_bytes())
    assert {name: read(tmp_path / name) for name, read in readers.items()} == plain
    assert main(argv) == 0
    assert (tmp_path / "d.asc").read_bytes() == dsm
    # A byte that is not UTF-8 after the mark still names its line.
    path = tmp_path / "features.txt"
    path.write_bytes(BOM + b"10;POINT;1.5 1.5 7\n# caf\xff\n")
    with pytest.raises(ValueError, match=f"^{path}: line 2 is not UTF-8 text$"):
        read_input(path, parse_features)


def write_build_inputs(tmp_path):
    """A 4x4 DTM, one POINT feature and its class; returns the build-dsm argv."""
    dtm = RasterGrid(4, 4, 0.0, 0.0, 1.0, values=np.arange(16.0).reshape(4, 4))
    (tmp_path / "dtm.asc").write_text(write_ascii_grid(dtm), encoding="utf-8")
    (tmp_path / "features.txt").write_text("10;POINT;1.5 1.5 7\n", encoding="utf-8")
    (tmp_path / "classes.txt").write_text("10\n", encoding="utf-8")
    return ["build-dsm", "--dtm", str(tmp_path / "dtm.asc"),
            "--features", str(tmp_path / "features.txt"),
            "--classes", str(tmp_path / "classes.txt"),
            "--out", str(tmp_path / "d.asc")]


@pytest.mark.parametrize("file, old, new, message", [
    ("scenario.cfg", "spinup_q = 0.5", "spinup_q: 0.5", "line 6: expected 'key = value', got 'spinup_q: 0.5'"),
    ("riverbed.txt", "4 0", "4 west", "line 2: bad cell index in '4 west'"),
    ("hydro.txt", "5 2.0", "5 2.0 7", "hydrograph line 2: expected 't Q'"),
    ("riverbed.txt", "3 0\n4 0\n", "# no cells yet\n", "no riverbed cells"),
], ids=["config", "riverbed-mask", "hydrograph", "empty-riverbed-mask"])
def test_run_on_a_malformed_input_exits_one_without_traceback(tmp_path, file, old, new,
                                                              message):
    cfg = write_channel_scenario(tmp_path)
    path = tmp_path / file
    path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    proc = run_cli_process(["run", "--config", str(cfg)])
    assert proc.returncode == 1
    assert f"{path}: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out" / "summary.txt").exists()


@pytest.mark.parametrize("command, file, old, new", [
    ("build-dsm", "features.txt", b"7\n", b"7\n# caf\xff\n"),
    ("run", "hydro.txt", b"5 2.0\n", b"5 2.0  # caf\xff\n"),
], ids=["features", "hydrograph"])
def test_an_input_that_is_not_utf8_exits_one_naming_its_file_and_line(tmp_path, command,
                                                                      file, old, new):
    argv = write_build_inputs(tmp_path) if command == "build-dsm" else [
        "run", "--config", str(write_channel_scenario(tmp_path))]
    path = tmp_path / file
    path.write_bytes(path.read_bytes().replace(old, new))
    proc = run_cli_process(argv)
    assert proc.returncode == 1
    assert f"{path}: line 2 is not UTF-8 text" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_validate_workflow_stdout_and_file(tmp_path, capsys):
    assert main(["validate", "--case", "lake-at-rest", "--n", "16"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("case,n,dx,L1,L2,Linf,order")
    assert "lake-at-rest,16," in out
    report = tmp_path / "norms.csv"
    assert main(["validate", "--case", "lake-at-rest", "--n", "16",
                 "--report", str(report)]) == 0
    assert report.read_text(encoding="utf-8") == out


def test_validate_report_write_that_fails_keeps_the_previous_report(tmp_path, monkeypatch):
    report = tmp_path / "norms.csv"
    argv = ["validate", "--case", "lake-at-rest", "--n", "16", "--report", str(report)]
    assert main(argv) == 0
    before = report.read_bytes()
    monkeypatch.setattr(raster, "open", half_writing_open, raising=False)
    assert main(argv) == 1
    assert report.read_bytes() == before
    assert list(tmp_path.iterdir()) == [report]

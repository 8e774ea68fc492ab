"""Tests of the benchmark itself, on the smoke sizes of every workload.

Run from the repository root with ``python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import self_times, union_length

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


def smoke(workload, trace, seed=1):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    suffix = f"{workload}-seed{seed}-trace{trace}-smoke.json"
    full = json.loads((ROOT / ".bench_out" / suffix).read_text())
    return result, full


def check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric_and_passes_its_checks(workload):
    result, full = smoke(workload, trace=0)
    check_result(result, SPEC["end_to_end"])
    for entry in result["metrics"].values():
        assert entry["value"] > 0
    assert full["checks"] == []
    assert full["fingerprints"]
    table = full["table"]
    assert table["failed_frac"]["value"] == 0
    if workload in ("valley_flood", "dam_break_wet"):
        assert table["mcell_steps_per_s_2blk"]["value"] > 0
    if workload != "dsm_build":
        assert table["mcell_steps_per_s"]["value"] > 0
    if workload == "ritter_strip":
        assert table["l1_error"]["unit"] == "m"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_emits_every_per_layer_metric(workload):
    result, full = smoke(workload, trace=1)
    check_result(result, SPEC["per_layer"])
    # Tracing must not change a computed bit.
    assert full["checks"] == []
    assert (ROOT / ".bench_out" / f"{workload}-seed1-trace1-smoke.spans.jsonl").exists()


def test_two_traced_runs_count_the_same_calls_and_match_the_named_counters():
    _, first = smoke("valley_flood", trace=1)
    _, second = smoke("valley_flood", trace=1)
    assert first["calls"] == second["calls"]
    per_step = first["calls_per_step_1blk"]
    assert per_step["boundary.apply_boundaries"] == 4
    assert per_step["boundary.riemann_inflow"] == 28
    assert per_step["solver.max_wave_speed"] == 2
    assert per_step["solver.residual_arrays"] == 2
    assert per_step["kernels.minmod"] == 16
    assert per_step["kernels.hllc_flux"] == 4
    assert 1 <= per_step["partition.BlockEngine.gather"] < 1.1


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spec_lists_the_metrics_the_code_emits():
    from layers import PER_LAYER
    from run import END_TO_END

    assert [m["name"] for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == PER_LAYER
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == END_TO_END


def test_self_time_subtracts_the_union_of_child_intervals():
    assert union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert union_length([(0, 2), (1, 3)], 1.5, 2.5) == 1.0
    # sid, name, t0, t1, t2, parent, thread, tag
    spans = [
        (1, "a", 0.0, 10.0, 10.0, None, 1, None),
        (2, "b", 1.0, 4.0, 4.5, 1, 1, None),
        (3, "b", 3.0, 6.0, 6.0, 1, 2, None),
    ]
    times = self_times(spans)
    assert times["a"] == pytest.approx(5.0)
    assert times["b"] == pytest.approx(6.0)

"""Per-layer metrics computed from the spans of one traced operation.

Metrics of the ``partition`` layer come from the 2-block part of the
operation, where halo exchange and the worker pool run; all others come
from the 1-block part.  A metric of a layer the workload never calls reads
0.  Byte figures are computed from array sizes, not measured.
"""

from __future__ import annotations

from collections import defaultdict

from spans import NAME, T0, T1, TAG, call_counts, self_times, stage_balance

KERNEL_SELF = ("hllc_flux", "hll_flux", "minmod", "muscl_reconstruct",
               "velocity_reconstruct", "hydrostatic_reconstruct",
               "interface_sources", "centered_source")
SOLVER_SELF = ("residual_arrays", "velocity", "euler_friction_stage", "friction_step",
               "max_wave_speed", "combine_heun", "rk2_step", "compute_dt")

# name -> (unit, better); the order is the order of the result line.
PER_LAYER: dict[str, tuple[str, str]] = {}
PER_LAYER.update({f"kernels.{k}.self_s": ("s", "lower") for k in KERNEL_SELF})
PER_LAYER.update({f"kernels.{k}.calls_per_step": ("calls/step", "lower")
                  for k in ("minmod", "hllc_flux", "hll_flux")})
PER_LAYER.update({
    "kernels.hllc_flux.mb_per_step": ("MB/step", "lower"),
    "kernels.minmod.mb_per_step": ("MB/step", "lower"),
    "kernels.hllc_flux.ns_per_cell": ("ns", "lower"),
})
PER_LAYER.update({f"solver.{k}.self_s": ("s", "lower") for k in SOLVER_SELF})
PER_LAYER.update({
    "solver.residual_arrays.calls_per_step": ("calls/step", "lower"),
    "solver.max_wave_speed.calls_per_step": ("calls/step", "lower"),
    "solver.residual_arrays.peak_alloc_mb": ("MB", "lower"),
    "solver.residual.wet_cell_frac": ("ratio", "higher"),
    "boundary.apply_boundaries.self_s": ("s", "lower"),
    "boundary.apply_boundaries.calls_per_step": ("calls/step", "lower"),
    "boundary.riemann_inflow.self_s": ("s", "lower"),
    "boundary.riemann_inflow.calls_per_step": ("calls/step", "lower"),
    "boundary.critical_fallback_frac": ("ratio", "lower"),
    "partition.BlockEngine.step.self_s": ("s", "lower"),
    "partition.BlockEngine.compute_dt.self_s": ("s", "lower"),
    "partition.BlockEngine.gather.self_s": ("s", "lower"),
    "partition.BlockEngine.gather.calls_per_step": ("calls/step", "lower"),
    "partition.BlockEngine.gather.mb_per_step": ("MB/step", "lower"),
    "partition.barrier_wait_s": ("s", "lower"),
    "partition.block_imbalance": ("ratio", "lower"),
    "simulation.run.self_s": ("s", "lower"),
    "simulation.MaximaMaps.update.self_s": ("s", "lower"),
    "simulation.load_scenario.self_s": ("s", "lower"),
    "simulation.assemble.self_s": ("s", "lower"),
    "raster.write_ascii_grid.self_s": ("s", "lower"),
    "raster.write_ascii_grid.mb": ("MB", "lower"),
    "raster.write_ascii_grid.mb_per_s": ("MB/s", "higher"),
    "raster.read_ascii_grid.self_s": ("s", "lower"),
    "features.parse_features.self_s": ("s", "lower"),
    "features.close_lines.self_s": ("s", "lower"),
    "rasterize.rasterize_feature.self_s": ("s", "lower"),
    "rasterize.extrude.self_s": ("s", "lower"),
    "rasterize.build_dsm.self_s": ("s", "lower"),
    "rasterize.cell_contributions": ("count", "lower"),
    "validate.run_case.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "machine.stream_copy_gbs": ("GB/s", "higher"),
})

# Counters whose calls per 1-block step are fixed by the scheme, not by timing.
STEP_COUNTERS = ("boundary.apply_boundaries", "boundary.riemann_inflow",
                 "solver.max_wave_speed", "solver.residual_arrays",
                 "kernels.minmod", "kernels.hllc_flux", "kernels.hll_flux",
                 "partition.BlockEngine.gather")


def steps_of(counts: dict[str, int]) -> int:
    return counts.get("partition.BlockEngine.step", 0) + counts.get("solver.rk2_step", 0)


def _tags(spans, name):
    return [sp[TAG] for sp in spans if sp[NAME] == name]


def _inclusive(spans, name) -> float:
    return sum(sp[T1] - sp[T0] for sp in spans if sp[NAME] == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans_1blk, spans_2blk, *, peak_alloc_mb: float,
                  overhead_frac: float, stream_gbs: float) -> dict[str, float]:
    self1 = defaultdict(float, self_times(spans_1blk))
    count1 = call_counts(spans_1blk)
    steps1 = steps_of(count1)
    self2 = defaultdict(float, self_times(spans_2blk))
    count2 = call_counts(spans_2blk)
    steps2 = steps_of(count2)

    out: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, rest = name.partition(".")
        if rest.endswith(".self_s"):
            source = self2 if layer == "partition" else self1
            out[name] = source[name[: -len(".self_s")]]
        elif rest.endswith(".calls_per_step"):
            fn = name[: -len(".calls_per_step")]
            if layer == "partition":
                out[name] = _ratio(count2.get(fn, 0), steps2)
            else:
                out[name] = _ratio(count1.get(fn, 0), steps1)

    for kernel in ("hllc_flux", "minmod"):
        nbytes = sum(tag[0] for tag in _tags(spans_1blk, f"kernels.{kernel}"))
        out[f"kernels.{kernel}.mb_per_step"] = _ratio(nbytes / 1e6, steps1)
    cells = sum(tag[1] for tag in _tags(spans_1blk, "kernels.hllc_flux"))
    out["kernels.hllc_flux.ns_per_cell"] = _ratio(
        _inclusive(spans_1blk, "kernels.hllc_flux") * 1e9, cells)

    out["solver.residual_arrays.peak_alloc_mb"] = peak_alloc_mb
    wet = _tags(spans_1blk, "solver.residual_arrays")
    out["solver.residual.wet_cell_frac"] = _ratio(sum(t[0] for t in wet),
                                                  sum(t[1] for t in wet))
    critical = _tags(spans_1blk, "boundary.riemann_inflow")
    out["boundary.critical_fallback_frac"] = _ratio(sum(critical), len(critical))

    gathered = sum(_tags(spans_2blk, "partition.BlockEngine.gather"))
    out["partition.BlockEngine.gather.mb_per_step"] = _ratio(gathered / 1e6, steps2)
    wait, imbalance = stage_balance(spans_2blk)
    out["partition.barrier_wait_s"] = wait
    out["partition.block_imbalance"] = imbalance

    written = sum(_tags(spans_1blk, "raster.write_ascii_grid")) / 1e6
    out["raster.write_ascii_grid.mb"] = written
    out["raster.write_ascii_grid.mb_per_s"] = _ratio(
        written, _inclusive(spans_1blk, "raster.write_ascii_grid"))
    out["rasterize.cell_contributions"] = float(
        sum(_tags(spans_1blk, "rasterize.rasterize_feature")))
    out["trace.overhead_frac"] = overhead_frac
    out["machine.stream_copy_gbs"] = stream_gbs
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: out[name] for name in PER_LAYER}


def step_counters(spans_1blk) -> dict[str, float]:
    """Calls per 1-block step of the counters named in STEP_COUNTERS."""
    counts = call_counts(spans_1blk)
    steps = steps_of(counts)
    return {name: _ratio(counts.get(name, 0), steps) for name in STEP_COUNTERS}

"""Benchmark command for swflood.

Usage, from the repository root:

    python3 bench/run.py --workload valley_flood --seed 1 --seconds 25 --trace 0

Workloads: valley_flood, dam_break_wet, ritter_strip, dsm_build (see
bench/README.md).  The seed fixes the generated inputs.  Operations repeat
while another one fits in ``--seconds`` (at least one runs), and each
operation checks its own outputs.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` one untraced and one
traced operation run and the last line carries the per-layer metrics.
Earlier lines give a readable table, the output fingerprints and the
machine facts; the full result, and with tracing every span, is written to
``.bench_out/`` at the repository root.  ``--smoke`` shrinks every
workload to a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes of every workload, for the benchmark's own tests")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_ops(workload, seconds: float):
    """Operations while another as long as the last fits in ``seconds``; at least one."""
    records, attempted = [], 0
    start = last_end = time.perf_counter()
    while True:
        attempted += 1
        try:
            records.append(workload.op())
        except Exception:  # an aborted operation counts as failed
            traceback.print_exc()
        now = time.perf_counter()
        if 2 * now - last_end - start > seconds:
            return records, attempted
        last_end = now


def readable_table(records, attempted, failed) -> dict:
    """Every end-to-end figure of the workload, including those it alone has."""
    def per_op(fn):
        return median_or_none([fn(r) for r in records])

    table = {
        "wall_s": (per_op(lambda r: r.wall_s), "s"),
        "setup_s": (median_or_none([s for r in records for s in r.setup_s]), "s"),
        "mcell_steps_per_s": (per_op(
            lambda r: r.cell_steps / r.wall_s / 1e6 if r.cell_steps else None), "Mcell-steps/s"),
        "mcell_steps_per_s_2blk": (per_op(
            lambda r: r.cell_steps / r.wall_2blk_s / 1e6
            if r.cell_steps and r.wall_2blk_s else None), "Mcell-steps/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "l1_error": (per_op(lambda r: r.extra.get("l1_error")), "m"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in table.items() if v is not None}


def residual_peak_alloc_mb(workload) -> float:
    """Peak bytes allocated by one residual evaluation, via tracemalloc."""
    from swflood import solver

    inputs = workload.residual_input()
    if inputs is None:
        return 0.0
    state, params = inputs
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solver.residual_arrays(state.h, state.hu, state.hv, state.z,
                               state.dx, state.dy, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 1e6


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import swflood
    except ImportError as exc:
        print(f"bench: cannot import swflood from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(swflood.__file__).resolve().parents:
        print(f"bench: swflood was imported from {swflood.__file__}, not from this "
              "checkout's src/", file=sys.stderr)
        return 2
    import layers
    import machine
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    workdir = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir)
        if args.trace:
            records, attempted = run_ops(wl, 0.0)
            tracer, tracer_2blk = spans.Tracer(), spans.Tracer()
            attempted += 1
            try:
                records.append(wl.op(tracer, tracer_2blk if wl.two_blocks else None))
            except Exception:
                traceback.print_exc()
            if len(records) < 2:
                print("bench: the traced operation or its baseline failed", file=sys.stderr)
                return 1
            base, traced = records
            metrics = layers.layer_metrics(
                tracer.spans, tracer_2blk.spans,
                peak_alloc_mb=residual_peak_alloc_mb(wl),
                overhead_frac=traced.wall_s / base.wall_s - 1.0,
                stream_gbs=machine.stream_copy_gbs(machine.stream_array_mib()),
            )
            units = {k: u for k, (u, _) in layers.PER_LAYER.items()}
        else:
            records, attempted = run_ops(wl, args.seconds)
            if not records:
                print("bench: every operation failed", file=sys.stderr)
                return 1
            metrics = {
                "wall_s": statistics.median(r.wall_s for r in records),
                "setup_s": statistics.median(s for r in records for s in r.setup_s),
                "peak_rss_mb": peak_rss_mb(),
            }
            units = {k: u for k, (u, _) in END_TO_END.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = (attempted - len(records)) + sum(1 for r in records if r.failures)
    for r in records:
        for failure in r.failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
    fingerprints = {}
    for r in records:
        for key, digest in r.fingerprints.items():
            if fingerprints.setdefault(key, digest) != digest:
                failed += 1
                print(f"CHECK FAILED: {key} differs between operations", file=sys.stderr)

    failed = min(failed, attempted)
    facts = machine.facts(ROOT, workers=2 if wl.two_blocks else 1)
    if args.trace:
        facts["stream_array_mib"] = machine.stream_array_mib()
    table = readable_table(records, attempted, failed)
    full = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds, "operations": len(records),
        "table": table, "fingerprints": fingerprints, "machine": facts,
        "checks": [f for r in records for f in r.failures],
        "per_op": [{"wall_s": r.wall_s, "wall_2blk_s": r.wall_2blk_s,
                    "setup_s": r.setup_s, "cell_steps": r.cell_steps, **r.extra}
                   for r in records],
    }
    if args.trace:
        full["calls"] = {"1blk": spans.call_counts(tracer.spans),
                         "2blk": spans.call_counts(tracer_2blk.spans)}
        full["calls_per_step_1blk"] = layers.step_counters(tracer.spans)
        full["per_layer"] = metrics
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps(full, indent=1) + "\n")
    if args.trace:
        with open(out_dir / f"{tag}.spans.jsonl", "w") as fh:
            for label, tr in (("1blk", tracer), ("2blk", tracer_2blk)):
                for sp in tr.spans:
                    fh.write(json.dumps([label, *sp]) + "\n")

    for name, entry in table.items():
        print(f"{args.workload:14s} {name:24s} {entry['value']:.6g} {entry['unit']}")
    print("fingerprints " + json.dumps(fingerprints, sort_keys=True))
    print("machine " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

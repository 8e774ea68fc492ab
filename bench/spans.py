"""Span tracing of the swflood layers from outside the package.

A :class:`Tracer` replaces the public functions and methods of each layer
module with thin wrappers that record one span per call: an id, the layer
name (``module.function`` or ``module.Class.method``), start and end times,
the id of the span that caused it, the thread, and an optional tag computed
from the call's arguments or result (bytes touched, a block key, ...).
Spans are kept in memory; nothing inside ``src/`` is changed, and
:meth:`Tracer.uninstall` puts every original object back.

Worker threads of the block engine start with an empty span stack; their
spans take the engine call that dispatched them (``BlockEngine.step`` or
``BlockEngine.compute_dt``) as parent, so the per-block stage spans can be
compared to find barrier waits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

LAYERS = (
    "kernels", "solver", "boundary", "partition", "simulation",
    "raster", "features", "rasterize", "validate",
)
# Thin modules are timed through their callers; the few of their functions
# a layer calls in its hot path are traced under that layer's name.
BORROWED = {"solver": ("velocity",)}
# Engine methods whose worker-thread calls are parented to them.
DISPATCHERS = ("partition.BlockEngine.step", "partition.BlockEngine.compute_dt")
# Span tuple fields.
SID, NAME, T0, T1, T2, PARENT, THREAD, TAG = range(8)


def _array_bytes(values) -> int:
    total = 0
    for v in values:
        nbytes = getattr(v, "nbytes", None)
        if nbytes is not None:
            total += nbytes
        elif isinstance(v, tuple):
            total += _array_bytes(v)
    return total


def _kernel_bytes(args, kwargs, result):
    """Computed bytes of one kernel call: array operands plus array results."""
    out = result if isinstance(result, tuple) else (result,)
    return (_array_bytes(args) + _array_bytes(kwargs.values()) + _array_bytes(out),
            int(getattr(out[0], "size", 1)))


def _wet_halo_cells(args, kwargs, result):
    """(interior cells within a 2-cell square halo of a wet cell, interior cells).

    Wet means h > 0 exactly: a tile whose cells and halo all hold h == 0
    yields an exactly zero residual.
    """
    wet = args[0] > 0.0
    rows = wet[0:-4] | wet[1:-3] | wet[2:-2] | wet[3:-1] | wet[4:]
    near = rows[:, 0:-4] | rows[:, 1:-3] | rows[:, 2:-2] | rows[:, 3:-1] | rows[:, 4:]
    return int(near.sum()), int(near.size)


def _first_arg_id(args, kwargs, result):
    return id(args[0])


def _engine_blocks(args, kwargs, result):
    return tuple(id(sub) for sub in args[0].locals)


def _critical(args, kwargs, result):
    return bool(result.critical)


def _result_len(args, kwargs, result):
    return len(result)


def _state_bytes(args, kwargs, result):
    return _array_bytes((result.h, result.hu, result.hv, result.z, result.wall_mask))


TAGGERS = {
    "kernels.hllc_flux": _kernel_bytes,
    "kernels.minmod": _kernel_bytes,
    "solver.residual_arrays": _wet_halo_cells,
    "solver.euler_friction_stage": _first_arg_id,
    "solver.max_wave_speed": _first_arg_id,
    "solver.combine_heun": _first_arg_id,
    "boundary.apply_boundaries": _first_arg_id,
    "boundary.riemann_inflow": _critical,
    "partition.BlockEngine.__init__": _engine_blocks,
    "partition.BlockEngine.gather": _state_bytes,
    "rasterize.rasterize_feature": _result_len,
    "raster.write_ascii_grid": _result_len,
}


def traced_callables():
    """(owner, attribute, span name, original) for every traced callable."""
    found = []
    for layer in LAYERS:
        mod = importlib.import_module(f"swflood.{layer}")
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found.append((mod, attr, f"{layer}.{attr}", obj))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for mattr, mobj in sorted(vars(obj).items()):
                    raw = getattr(mobj, "__func__", mobj)
                    if not inspect.isfunction(raw):
                        continue
                    own_init = (mattr == "__init__"
                                and raw.__code__.co_filename == inspect.getfile(mod))
                    if mattr.startswith("_") and not own_init:
                        continue
                    found.append((obj, mattr, f"{layer}.{attr}.{mattr}", mobj))
        for attr in BORROWED.get(layer, ()):
            found.append((mod, attr, f"{layer}.{attr}", getattr(mod, attr)))
    return found


class Tracer:
    """Records spans of every traced swflood call while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._dispatch_parent = None
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        tagger = TAGGERS.get(name)
        dispatcher = name in DISPATCHERS
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else tracer._dispatch_parent
            sid = next(ids)
            stack.append(sid)
            if dispatcher:
                outer = tracer._dispatch_parent
                tracer._dispatch_parent = sid
            try:
                t0 = clock()
                result = fn(*args, **kwargs)
                t1 = clock()
            finally:
                stack.pop()
                if dispatcher:
                    tracer._dispatch_parent = outer
            tag = tagger(args, kwargs, result) if tagger is not None else None
            # t2 closes the interval the caller must not count as its own time.
            spans.append((sid, name, t0, t1, clock(), parent,
                          threading.get_ident(), tag))
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "swflood" or name.startswith("swflood.")]
        for owner, attr, name, original in traced_callables():
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__))
            elif isinstance(original, staticmethod):
                wrapped = staticmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            targets = [(owner, attr)]
            if inspect.ismodule(owner) and attr not in BORROWED.get(name.split(".")[0], ()):
                # Rebind names other modules imported with ``from .x import f``.
                targets += [
                    (m, a) for m in modules if m is not owner
                    for a, v in vars(m).items() if v is original
                ]
            for obj, a in targets:
                self._restore.append((obj, a, vars(obj)[a]))
                setattr(obj, a, wrapped)
        return self

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict[str, float]:
    """Sum per span name of duration minus the time its child spans cover.

    A child covers its call plus the tracer's own bookkeeping after it, so
    tracing cost is not charged to the caller.
    """
    children = defaultdict(list)
    for sp in spans:
        if sp[PARENT] is not None:
            children[sp[PARENT]].append((sp[T0], sp[T2]))
    out = defaultdict(float)
    for sp in spans:
        kids = children.get(sp[SID])
        covered = union_length(kids, sp[T0], sp[T1]) if kids else 0.0
        out[sp[NAME]] += (sp[T1] - sp[T0]) - covered
    return dict(out)


def call_counts(spans) -> dict[str, int]:
    counts = defaultdict(int)
    for sp in spans:
        counts[sp[NAME]] += 1
    return dict(sorted(counts.items()))


def stage_balance(spans):
    """Barrier wait and imbalance of the per-block stage tasks.

    Within each ``BlockEngine.step``, the worker spans of one block split into
    tasks, each starting at a ghost fill or at the Heun combine; the tasks
    holding an Euler stage are the stages.  Per stage, the barrier wait is
    the sum over blocks of the slowest block's task time minus each block's
    own.  Returns (total wait in s, sum of stage maxima over sum of stage
    means), or (0.0, 0.0) when no multi-block stage ran.
    """
    blocks = set()
    for sp in spans:
        if sp[NAME] == "partition.BlockEngine.__init__" and len(sp[TAG]) > 1:
            blocks.update(sp[TAG])
    if not blocks:
        return 0.0, 0.0
    steps = {sp[SID] for sp in spans if sp[NAME] == "partition.BlockEngine.step"}
    per_step = defaultdict(lambda: defaultdict(list))
    for sp in spans:
        if sp[PARENT] in steps and sp[TAG] in blocks:
            per_step[sp[PARENT]][sp[TAG]].append(sp)
    wait = sum_max = sum_mean = 0.0
    for by_block in per_step.values():
        stage_times = []
        for block_spans in by_block.values():
            tasks = []
            for sp in sorted(block_spans, key=lambda s: s[T0]):
                if sp[NAME] in ("boundary.apply_boundaries", "solver.combine_heun") or not tasks:
                    tasks.append([])
                tasks[-1].append(sp)
            stage_times.append([
                task[-1][T1] - task[0][T0] for task in tasks
                if any(s[NAME] == "solver.euler_friction_stage" for s in task)
            ])
        for per_stage in zip(*stage_times):
            slowest = max(per_stage)
            wait += sum(slowest - d for d in per_stage)
            sum_max += slowest
            sum_mean += sum(per_stage) / len(per_stage)
    return wait, (sum_max / sum_mean if sum_mean > 0 else 0.0)

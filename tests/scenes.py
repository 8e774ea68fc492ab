"""Scenes and stepping loops shared by the tests, each written once.

- ``valley_z``, ``BENCHES`` and ``write_valley_scenario``: the acceptance
  valley, 150x200 cells of 2 m falling to the east, with a river channel in
  rows 72-78 and two walled benches.  ``bench/workloads.py::valley_z`` builds
  the same valley with seeded millimetre relief, which ``valley_z(rng)`` adds
  too.  ``test_acceptance.py::test_the_seeded_valley_is_the_bench_valley``
  ties the two: it pins the sha256 of the seed-131 raster to the bytes the
  bench writes.
- ``bump_lake`` and ``wet_dam``: a still lake over a parabolic bump, and a
  square wet dam break.
- ``write_channel_scenario`` and ``read_summary``: a small sloped channel
  fed from the west and drained to the east, and the summary a run of it
  writes.
- ``march`` and ``march_to``: the fixed-count and fixed-horizon stepping
  loops.  ``field_digest`` is the sha256 of the fields and the boundary
  volumes that ``march`` leaves.
- ``Feature``, ``feature_table`` and ``features_of``: one classified feature
  as a record, and the conversions between records and a ``FeatureTable``.
"""

import hashlib
from contextlib import nullcontext
from functools import partial
from typing import NamedTuple

import numpy as np

from swflood.boundary import BoundarySpec, apply_boundaries
from swflood.features import FeatureKind, FeatureTable
from swflood.partition import BlockEngine, land, rk2_step
from swflood.raster import RasterGrid, write_ascii_grid
from swflood.solver import compute_dt
from swflood.state import INT, PhysicalParams, State

BENCHES = ((58, 70, 40, 72), (81, 93, 110, 142))


def valley_z(rng=None):
    """Sloping valley with a channel notch and two walled benches.

    ``rng`` adds seeded relief, rounded to 0.1 mm within ±5 mm, before the
    benches are raised.
    """
    nrows, ncols = 150, 200
    rows = np.arange(nrows)[:, None]
    cols = np.arange(ncols)[None, :]
    z = 0.01 * (ncols - 1 - cols) + 0.005 * np.abs(rows - 75)
    z = np.broadcast_to(z, (nrows, ncols)).copy()
    z[72:79, :] -= 0.3
    if rng is not None:
        z += np.round(rng.uniform(-0.005, 0.005, size=z.shape), 4)
    for r0, r1, c0, c1 in BENCHES:
        ring = np.zeros((nrows, ncols), dtype=bool)
        ring[r0:r1, c0:c1] = True
        ring[r0 + 1 : r1 - 1, c0 + 1 : c1 - 1] = False
        z[ring] += 4.0
    return z


class Feature(NamedTuple):
    class_id: int
    kind: FeatureKind
    vertices: np.ndarray  # (n, 3) rows of x, y, z


def feature_table(*features):
    """The FeatureTable of ``Feature`` records (or any (class id, kind,
    vertices) triples), in order; the table's constructor checks them."""
    verts = [np.asarray(f[2], dtype=np.float64).reshape(-1, 3) for f in features]
    return FeatureTable([f[0] for f in features], [f[1] for f in features],
                        np.cumsum([0] + [len(v) for v in verts]),
                        np.concatenate([np.empty((0, 3))] + verts))


def features_of(table):
    """The features of a FeatureTable as ``Feature`` records of views."""
    bounds = table.offsets.tolist()
    return [Feature(int(c), FeatureKind(int(k)), table.vertices[a:b])
            for c, k, a, b in zip(table.class_ids, table.kinds, bounds[:-1], bounds[1:])]


def bump_lake(n, bump, surface=0.5, extent=25.0):
    """Still lake over a parabolic bump; bump > surface leaves an island."""
    x = (np.arange(n) + 0.5) * (extent / n)
    zx = np.maximum(0.0, bump - 0.05 * (x - 10.0) ** 2)
    z = np.tile(zx, (n, 1))
    st = State(n, n, extent / n, extent / n, z)
    st.h[INT] = np.maximum(0.0, surface - z)
    return st


def wet_dam(n=200):
    """Square wet dam break: 1 m of water west of the middle column, 0.1 m east."""
    st = State(n, n, 0.5, 0.5, np.zeros((n, n)))
    st.h[INT][:, : n // 2] = 1.0
    st.h[INT][:, n // 2 :] = 0.1
    return st


def write_valley_scenario(d, peak):
    """The valley study: a 5 m3/s river spun up for 60 s, then a wave peaking at ``peak``."""
    grid = RasterGrid(200, 150, 0.0, 0.0, 2.0, values=valley_z())
    (d / "valley.asc").write_text(write_ascii_grid(grid), encoding="utf-8")
    (d / "riverbed.txt").write_text("".join(f"{r} 0\n" for r in range(72, 79)), encoding="utf-8")
    (d / "hydro.txt").write_text(f"0 5\n60 {peak}\n120 5\n", encoding="utf-8")
    cfg = d / f"scenario_{peak}.cfg"
    cfg.write_text(
        f"""\
dsm = valley.asc
output_dir = out_{peak}
total_duration = 240
snapshot_interval = 120
spinup_duration = 60
spinup_q = 5
manning_n = 0.03
boundary.west = discharge
boundary.east = free_outflow
riverbed_mask = riverbed.txt
hydrograph = hydro.txt
""",
        encoding="utf-8",
    )
    return cfg


def write_channel_scenario(d, extra="", outdir="out"):
    """A small sloped channel with west inflow and east outflow; returns its config."""
    col = np.arange(10, dtype=np.float64)
    z = np.tile(0.02 * (9.0 - col), (8, 1))
    grid = RasterGrid(10, 8, 0.0, 0.0, 1.0, values=z)
    (d / "terrain.asc").write_text(write_ascii_grid(grid), encoding="utf-8")
    (d / "riverbed.txt").write_text("3 0\n4 0\n", encoding="utf-8")
    (d / "hydro.txt").write_text("0 1.0\n5 2.0\n", encoding="utf-8")
    cfg = d / "scenario.cfg"
    cfg.write_text(f"""\
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
{extra}""", encoding="utf-8")
    return cfg


def read_summary(outdir):
    """The ``key = value`` lines of ``outdir/summary.txt`` as a dict of strings."""
    text = (outdir / "summary.txt").read_text(encoding="utf-8")
    return dict(line.split(" = ", 1) for line in text.strip().splitlines())


def march(state, params, spec, steps, nblocks=0):
    """Take ``steps`` steps from t = 0; returns (final state, diagnostics per step).

    ``nblocks`` 0 steps with the serial ``rk2_step``; N steps with an N-thread
    ``BlockEngine``, whose ``gather`` is the final state.
    """
    t, diags = 0.0, []
    with BlockEngine(state, params, spec, nblocks=nblocks) if nblocks else nullcontext() as eng:
        step = eng.step if nblocks else partial(rk2_step, state, params, spec)
        for _ in range(steps):
            diags.append(step(t))
            t += diags[-1].dt
        return (eng.gather() if nblocks else state), diags


def march_to(state, horizon, params=PhysicalParams(), spec=BoundarySpec.walls()):
    """Step exactly to the horizon, clipping the final dt; yields diagnostics."""
    t = 0.0
    while t < horizon:
        # Fresh ghosts at t, as a production step's dt reads them.
        apply_boundaries(state, spec, t, params)
        dt, t_next = land(t, compute_dt(state, params), horizon)
        yield rk2_step(state, params, spec, t, dt)
        t = t_next


def field_digest(state, diags):
    """sha256 of the interior h, hu and hv, then of t, inflow and outflow.

    The three sums accumulate over ``diags`` in step order, as a stepping
    loop adds them up.
    """
    t = inflow = outflow = 0.0
    for d in diags:
        t += d.dt
        inflow += d.inflow_volume
        outflow += d.outflow_volume
    hasher = hashlib.sha256()
    for arr in (state.h[INT], state.hu[INT], state.hv[INT]):
        hasher.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    hasher.update(np.array([t, inflow, outflow], dtype="<f8").tobytes())
    return hasher.hexdigest()

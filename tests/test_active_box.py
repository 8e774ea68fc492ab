"""Pins of the dry-region skip in the Euler-plus-friction stage.

Each stage advances only the active box of the state: the bounding box of
its non-zero h, hu or hv (ghosts included), grown by the two-cell MUSCL
stencil and clipped to the interior.  The digests below were recorded with a
solver that evaluated every cell of every stage; the skip must reproduce
them bitwise for any thread count and any strip size.
"""

import hashlib

import numpy as np
import pytest

from swflood import solver
from swflood.boundary import BoundarySpec, apply_boundaries, discharge, free_outflow, wall
from swflood.solver import euler_friction_stage
from swflood.state import GHOSTS, INT, PhysicalParams, State
from scenes import field_digest, march

PARAMS = PhysicalParams(manning_n=0.03)


def run(build, nblocks=0):
    """The field digest of a built case, stepped serially or on ``nblocks`` threads."""
    state, spec, steps = build()
    return field_digest(*march(state, PARAMS, spec, steps, nblocks))


def seam_patch():
    """Wet patch on a rough bed, away from every edge."""
    rng = np.random.default_rng(31)
    st = State(18, 18, 1.0, 1.0, rng.uniform(0.0, 0.05, size=(18, 18)))
    st.h[INT][4:12, 4:12] = 0.3 + rng.uniform(0.0, 0.1, size=(8, 8))
    st.hu[INT][4:12, 4:12] = rng.uniform(-0.05, 0.05, size=(8, 8))
    st.hv[INT][4:12, 4:12] = rng.uniform(-0.05, 0.05, size=(8, 8))
    return st, BoundarySpec.walls(), 24


def dry_inflow():
    """Dry sloping valley fed from the west; the box grows as the water arrives."""
    x = np.arange(12, dtype=np.float64)
    z = np.tile(0.5 - 0.04 * x, (8, 1)) + 0.01 * np.abs(np.arange(8) - 3.5)[:, None]
    st = State(8, 12, 1.0, 1.0, z)
    spec = BoundarySpec(wall(), wall(), free_outflow(),
                        discharge(lambda t: 0.6 + 0.05 * t, [3, 4]))
    return st, spec, 40


def all_dry():
    rng = np.random.default_rng(32)
    st = State(10, 10, 2.0, 2.0, rng.uniform(0.0, 1.0, size=(10, 10)))
    return st, BoundarySpec(wall(), free_outflow(), wall(), wall()), 20


def stray_momentum():
    """Water in the north-west corner; far south-east dry cells carry momentum."""
    st = State(12, 24, 1.0, 1.0, np.zeros((12, 24)))
    st.h[INT][0:3, 0:3] = 0.2
    st.hu[INT][10, 21] = 0.7
    st.hv[INT][11, 20] = -0.2
    st.hu[INT][9, 23] = -0.0
    return st, BoundarySpec.walls(), 20


CASES = {  # digest after the listed steps, recorded before the skip existed
    "seam_patch": (seam_patch, "d5c5df03e1402a4d19303b698ac05702fd4a3df4b8f0fec7b0a326ca5eaf43ee"),
    "dry_inflow": (dry_inflow, "f7f07122ab729251d45e90ab8348a693849f6d214a0fb515cd3a01bc3dada740"),
    "all_dry": (all_dry, "d265ec113c7d6b89719f79446453c361dc9b0955bad64e182461a795d75067d8"),
    "stray_momentum": (stray_momentum, "afb30e0c9307482d235c6207a8231104bc36fbfda02a2fa162b961b0176a8c75"),
}


# Whole padded h, hu and hv, ghosts included, after the serial steps; recorded
# while rk2_step still carried its own copy of the step sequence.  The next
# compute_dt of a serial caller reads these ghosts.
PADDED = {
    "seam_patch": "6ad84e16767a6e653574cee8dbad6d366b460be5acc70e82fb7d00f884c215c5",
    "dry_inflow": "4af562c2203e158c745feae146ff11b782b686f93ef0229ef7fe1ceea4e0b6c3",
    "all_dry": "5f109d887748d18e9a48b05e3c75a1acfdee3509dd9934ade7eb3996b51d77f6",
    "stray_momentum": "cf6655e9ccac69c2ab37ba1dc09fb89152e66a73d5f671b11199a3b82684cbbd",
}


@pytest.mark.parametrize("nblocks", [1, 2, 4, 9])
@pytest.mark.parametrize("case", sorted(CASES))
def test_active_box_stepping_reproduces_the_full_grid_digest(case, nblocks):
    build, expected = CASES[case]
    assert run(build, nblocks) == expected


@pytest.mark.parametrize("nthreads", [1, 2, 4, 9])
@pytest.mark.parametrize("case", sorted(CASES))
def test_one_row_strips_reproduce_the_full_grid_digest(case, nthreads, monkeypatch):
    # Every row of a box is a strip of its own, so each wet case spans more
    # strips than threads.
    monkeypatch.setattr(solver, "_STRIP_CELLS", 1)
    build, expected = CASES[case]
    assert run(build, nthreads) == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_serial_step_reproduces_the_full_grid_digest(case):
    build, expected = CASES[case]
    assert run(build) == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_serial_step_leaves_the_recorded_ghosts(case):
    build, _ = CASES[case]
    state, spec, steps = build()
    march(state, PARAMS, spec, steps)
    hasher = hashlib.sha256()
    for arr in (state.h, state.hu, state.hv):
        hasher.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    assert hasher.hexdigest() == PADDED[case]


def test_stage_leaves_cells_outside_the_active_box_bit_for_bit():
    rng = np.random.default_rng(33)
    st = State(20, 20, 1.0, 1.0, rng.uniform(0.0, 0.1, size=(20, 20)))
    st.h[INT][3:6, 4:8] = rng.uniform(0.2, 0.4, size=(3, 4))
    st.hu[INT][3:6, 4:8] = rng.uniform(-0.1, 0.1, size=(3, 4))
    st.h[INT][15, 2] = -0.0
    # Wall ghosts mirror the dry interior as -0.0 momentum, which is not live.
    apply_boundaries(st, BoundarySpec.walls(), 0.0, PARAMS)
    # Rows 3..5 and columns 4..7 grown by the two-cell stencil.
    assert solver.active_box(st) == (1, 8, 2, 10)

    before = [arr.view(np.uint64).copy() for arr in (st.h, st.hu, st.hv)]
    euler_friction_stage(st, PARAMS, 0.05, solver.active_box(st))
    outside = np.ones(st.h.shape, dtype=bool)
    outside[GHOSTS + 1:GHOSTS + 8, GHOSTS + 2:GHOSTS + 10] = False
    for old, arr in zip(before, (st.h, st.hu, st.hv)):
        np.testing.assert_array_equal(arr.view(np.uint64)[outside], old[outside])
    assert not np.array_equal(st.h.view(np.uint64), before[0])
    assert np.signbit(st.h[INT][15, 2])


def test_dry_cells_with_momentum_are_live():
    st = State(12, 12, 1.0, 1.0, np.zeros((12, 12)))
    assert solver.active_box(st) is None
    st.hu[INT][6, 9] = 0.7
    assert solver.active_box(st) == (4, 9, 7, 12)
    st.hu[INT][6, 9] = 0.0
    st.hv[INT][0, 0] = -0.0  # the stage rewrites it to +0.0
    assert solver.active_box(st) == (0, 3, 0, 3)
    euler_friction_stage(st, PARAMS, 0.1, solver.active_box(st))
    assert not np.signbit(st.hv[INT][0, 0])


def test_an_all_dry_block_does_nothing(monkeypatch):
    # A state with no live cell runs no strip.
    st = State(6, 5, 1.0, 1.0, np.linspace(0.0, 1.0, 30).reshape(6, 5))
    calls = []
    monkeypatch.setattr(solver, "residual_arrays", lambda *args: calls.append(args))
    edges = euler_friction_stage(st, PARAMS, 0.1, solver.active_box(st))
    assert calls == []
    assert edges.min_h == 0.0
    for line, size in ((edges.west, 6), (edges.east, 6), (edges.north, 5), (edges.south, 5)):
        np.testing.assert_array_equal(line, np.zeros(size))
    assert not st.h.any() and not st.hu.any() and not st.hv.any()

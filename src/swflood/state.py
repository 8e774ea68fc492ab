"""Conserved-variable state on a padded structured grid.

Fields are water depth h and discharges hu, hv per unit width on a grid with
a two-cell ghost margin on every side.  Topography z is fixed for the run.
The transverse axis follows the raster convention: rows increase southward,
so v > 0 means flow toward larger row indices.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import FRESH
from .raster import RasterGrid

logger = logging.getLogger(__name__)

GHOSTS = 2
# Interior view of a padded array.
INT = (slice(GHOSTS, -GHOSTS), slice(GHOSTS, -GHOSTS))

# Height added above the tallest terrain to realize impermeable wall cells.
WALL_BLOCK_HEIGHT = 1.0e4


@dataclass
class PhysicalParams:
    """Constants of the scheme; defaults match common overland-flow practice."""

    g: float = 9.81
    manning_n: float = 0.0
    h_dry: float = 1.0e-10
    cfl: float = 0.5
    dt_min: float = 1.0e-8
    dt_max: float = 10.0
    friction_full_velocity: bool = False  # couple friction through |q| magnitude

    def __post_init__(self):
        for name in ("g", "manning_n", "h_dry", "cfl", "dt_min", "dt_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
        if not self.g > 0:
            raise ValueError(f"g must be positive, got {self.g}")
        if self.manning_n < 0:
            raise ValueError(f"manning_n must be non-negative, got {self.manning_n}")
        if not self.h_dry > 0:
            raise ValueError(f"h_dry must be positive, got {self.h_dry}")
        if not self.cfl > 0:
            raise ValueError(f"cfl must be positive, got {self.cfl}")
        if self.cfl > 1.0:
            warnings.warn(f"cfl = {self.cfl} > 1 is unstable for this scheme", stacklevel=2)
        if not 0 < self.dt_min <= self.dt_max:
            raise ValueError(f"need 0 < dt_min <= dt_max, got {self.dt_min}, {self.dt_max}")


class State:
    """Padded h, hu, hv and z arrays plus grid geometry.

    Invariants: h >= 0 everywhere; cells with h <= h_dry carry zero momentum
    (enforced by the solver after every stage).
    """

    def __init__(self, nrows: int, ncols: int, dx: float, dy: float,
                 z: np.ndarray, xll: float = 0.0, yll: float = 0.0):
        if nrows < 1 or ncols < 1:
            raise ValueError(f"grid must be at least 1x1, got {nrows}x{ncols}")
        for name, value in (("dx", dx), ("dy", dy), ("xll", xll), ("yll", yll)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
        if not (dx > 0 and dy > 0):
            raise ValueError(f"cell sizes must be positive, got dx={dx}, dy={dy}")
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (nrows, ncols):
            raise ValueError(f"z shape {z.shape} does not match {nrows}x{ncols}")
        self.nrows = nrows
        self.ncols = ncols
        self.dx = dx
        self.dy = dy
        self.xll = xll
        self.yll = yll
        shape = (nrows + 2 * GHOSTS, ncols + 2 * GHOSTS)
        self.h = np.zeros(shape)
        self.hu = np.zeros(shape)
        self.hv = np.zeros(shape)
        # Ghost z starts edge-replicated; boundary filling overwrites it.
        self.z = np.pad(z, GHOSTS, mode="edge")
        self.wall_mask = np.zeros((nrows, ncols), dtype=bool)

    @classmethod
    def from_dsm(
        cls,
        dsm: RasterGrid,
        initial_h: float = 0.0,
        nodata_walls: bool = False,
    ) -> "State":
        """Build a state over a DSM; row 0 of the raster is the north edge.

        Nodata cells become internal walls when ``nodata_walls`` is on and are
        rejected otherwise.  Wall cells are realized as topography raised far
        above any reachable free surface, which blocks flow exactly under the
        hydrostatic reconstruction.
        """
        if initial_h < 0:
            raise ValueError(f"initial_h must be non-negative, got {initial_h}")
        z = dsm.values.copy()
        wall = dsm.nodata_mask
        if wall.any() and not nodata_walls:
            raise ValueError(
                f"DSM has {int(wall.sum())} nodata cell(s); "
                "enable wall masking or fill them"
            )

        z_wall = (z[~wall].max() if (~wall).any() else 0.0) + WALL_BLOCK_HEIGHT
        z[wall] = z_wall
        state = cls(dsm.nrows, dsm.ncols, dsm.cellsize, dsm.cellsize, z,
                    xll=dsm.xll, yll=dsm.yll)
        state.wall_mask = wall
        if initial_h > 0:
            h = state.h[INT]
            h[~wall] = initial_h
        if wall.any():
            logger.info("flagged %d internal wall cell(s)", int(wall.sum()))
        return state

    def copy(self) -> "State":
        out = State.__new__(State)
        out.__dict__.update(self.__dict__)
        out.h = self.h.copy()
        out.hu = self.hu.copy()
        out.hv = self.hv.copy()
        out.z = self.z.copy()
        out.wall_mask = self.wall_mask.copy()
        return out

    def total_volume(self) -> float:
        return float(self.h[INT].sum() * self.dx * self.dy)


def velocity(h: np.ndarray, q: np.ndarray, h_dry: float, ws=FRESH) -> np.ndarray:
    """Velocity q/h with dry cells (h <= h_dry) forced to exactly zero.

    The result and the wet mask come from ``ws`` (see kernels.Workspace),
    which holds both.
    """
    out, wet = ws.take(h, q, masks=1)
    out.fill(0.0)
    np.divide(q, h, out=out, where=np.greater(h, h_dry, out=wet))
    return out

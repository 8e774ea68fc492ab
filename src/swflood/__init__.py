"""swflood: well-balanced shallow-water overland-flow simulation.

A finite-volume solver for the 2D shallow water equations (hydrostatic
reconstruction, MUSCL/minmod, HLLC fluxes, TVD-RK2, semi-implicit Manning
friction), a DSM builder that extrudes classified vector features onto a
terrain raster, scenario-driven flood runs with maxima maps, and analytical
verification cases.

The names imported below are the public API: the entry points of the README
"Python API" section and of the three CLI workflows, and the errors they
raise.  Everything else is reached through its submodule.
"""

from types import ModuleType as _Module

from .analytic import exact_riemann_sample, ritter_solution, stoker_solution
from .boundary import BoundarySpec
from .features import FeatureParseError, parse_features, read_class_selection
from .partition import BlockEngine, rk2_step
from .raster import RasterParseError, load_raster, save_raster
from .rasterize import build_dsm
from .simulation import ConfigError, load_scenario, run
from .solver import NumericalAbort
from .state import PhysicalParams, State

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _Module))

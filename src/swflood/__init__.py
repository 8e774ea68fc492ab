"""swflood: well-balanced shallow-water overland-flow simulation.

A finite-volume solver for the 2D shallow water equations (hydrostatic
reconstruction, MUSCL/minmod, HLLC fluxes, TVD-RK2, semi-implicit Manning
friction), a DSM builder that extrudes classified vector features onto a
terrain raster, scenario-driven flood runs with maxima maps, and analytical
verification cases.
"""

from .analytic import (
    AnalyticalCase,
    error_norms,
    exact_riemann_sample,
    lake_at_rest_case,
    ritter_solution,
    stoker_middle_state,
    stoker_solution,
)
from .boundary import (
    BoundarySpec,
    EdgeCondition,
    EdgeKind,
    discharge,
    edge_mask_from_cells,
    free_outflow,
    read_riverbed_mask,
    riemann_inflow,
    wall,
)
from .features import (
    ClassifiedFeature,
    FeatureKind,
    FeatureParseError,
    close_lines,
    parse_features,
    read_class_selection,
    select_classes,
)
from .partition import BlockEngine
from .raster import (
    RasterGrid,
    RasterParseError,
    load_raster,
    read_ascii_grid,
    save_raster,
    write_ascii_grid,
)
from .rasterize import build_dsm, extrude, rasterize_feature
from .simulation import (
    ConfigError,
    Hydrograph,
    MassBalance,
    MaximaMaps,
    RunResult,
    Scenario,
    load_checkpoint,
    load_scenario,
    read_hydrograph,
    run,
    save_checkpoint,
)
from .solver import (
    NumericalAbort,
    StepDiagnostics,
    compute_dt,
    friction_step,
    rk2_step,
)
from .state import PhysicalParams, State, velocity

__version__ = "0.1.0"

__all__ = [
    "AnalyticalCase",
    "BlockEngine",
    "BoundarySpec",
    "ClassifiedFeature",
    "ConfigError",
    "EdgeCondition",
    "EdgeKind",
    "FeatureKind",
    "FeatureParseError",
    "Hydrograph",
    "MassBalance",
    "MaximaMaps",
    "NumericalAbort",
    "PhysicalParams",
    "RasterGrid",
    "RasterParseError",
    "RunResult",
    "Scenario",
    "State",
    "StepDiagnostics",
    "build_dsm",
    "close_lines",
    "compute_dt",
    "discharge",
    "edge_mask_from_cells",
    "error_norms",
    "exact_riemann_sample",
    "extrude",
    "free_outflow",
    "friction_step",
    "lake_at_rest_case",
    "load_checkpoint",
    "load_raster",
    "load_scenario",
    "parse_features",
    "rasterize_feature",
    "read_ascii_grid",
    "read_class_selection",
    "read_hydrograph",
    "read_riverbed_mask",
    "riemann_inflow",
    "ritter_solution",
    "rk2_step",
    "run",
    "save_checkpoint",
    "save_raster",
    "select_classes",
    "stoker_middle_state",
    "stoker_solution",
    "velocity",
    "wall",
    "write_ascii_grid",
]

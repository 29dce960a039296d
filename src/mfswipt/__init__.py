"""Mixed near-/far-field SWIPT: joint beam scheduling and power allocation.

An XL-array base station serves near-field energy harvesters and far-field
information decoders at once.  This package models the geometry and beam
couplings, evaluates rates and harvested power for any allocation, and
solves the weighted harvested-power maximization under a sum-rate floor
with a convexification loop, closed forms for the tractable cases and a
brute-force schedule oracle.
"""

__version__ = "0.1.0"

from .benchmarks import ResultRow, SchemeId, SweepSpec, run_scheme, run_sweep
from .correlation import (
    CorrelationMatrices,
    DegenerateGeometryError,
    FresnelPair,
    build_matrices,
    correlation_approx,
    correlation_grid,
    correlation_exact,
    eh_priority,
    fresnel,
)
from .geometry import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    FresnelRegionWarning,
    PolarLocation,
    aod_to_spatial_angle,
    channel_gain,
    element_distance,
    element_distance_taylor,
    far_steering,
    fresnel_min_distance,
    near_steering,
    rayleigh_distance,
)
from .metrics import (
    MetricsReport,
    PowerAllocation,
    eh_power,
    evaluate,
    id_rate,
    nonlinear_eh,
    sum_rate,
    weighted_sum_power,
)
from .scenario import (
    NonlinearEhParams,
    Receiver,
    Scenario,
    ScenarioError,
    bundled_scenario_path,
    dbm_to_watts,
    parse_scenario,
    scenario_hash,
    scenario_to_dict,
    watts_to_dbm,
)
from .solvers import (
    NoFeasibleInterior,
    RateMaxResult,
    SolveReport,
    SolveStatus,
    SolverNumericalError,
    SolverOptions,
    closed_form_eh_only,
    closed_form_mixed,
    exhaustive_search,
    fp_rate_max,
    inner_convex,
    sca_solve,
)

__all__ = [
    "__version__",
    "SPEED_OF_LIGHT",
    "ArrayConfig",
    "PolarLocation",
    "FresnelRegionWarning",
    "rayleigh_distance",
    "fresnel_min_distance",
    "element_distance",
    "element_distance_taylor",
    "near_steering",
    "far_steering",
    "channel_gain",
    "aod_to_spatial_angle",
    "NonlinearEhParams",
    "Receiver",
    "Scenario",
    "ScenarioError",
    "parse_scenario",
    "scenario_to_dict",
    "scenario_hash",
    "bundled_scenario_path",
    "dbm_to_watts",
    "watts_to_dbm",
    "FresnelPair",
    "DegenerateGeometryError",
    "CorrelationMatrices",
    "fresnel",
    "correlation_exact",
    "correlation_approx",
    "correlation_grid",
    "build_matrices",
    "eh_priority",
    "PowerAllocation",
    "MetricsReport",
    "id_rate",
    "sum_rate",
    "eh_power",
    "weighted_sum_power",
    "evaluate",
    "nonlinear_eh",
    "SolveStatus",
    "SolverOptions",
    "SolveReport",
    "RateMaxResult",
    "SolverNumericalError",
    "NoFeasibleInterior",
    "fp_rate_max",
    "inner_convex",
    "sca_solve",
    "closed_form_eh_only",
    "closed_form_mixed",
    "exhaustive_search",
    "SchemeId",
    "SweepSpec",
    "ResultRow",
    "run_scheme",
    "run_sweep",
]

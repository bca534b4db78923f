"""Core contribution: domination bounds, uncertain generating functions, IDCA."""

from .domination import (
    CompleteDominationResult,
    complete_domination_filter,
    complete_domination_scan,
    pdom_bounds,
    pdom_bounds_from_partitions,
    probabilistic_domination_bounds,
)
from .domination_count import (
    DominationCountBounds,
    combine_weighted_bounds,
    combine_weighted_bounds_arrays,
    domination_count_bounds,
    domination_count_bounds_batch,
)
from .generating_functions import (
    UncertainGeneratingFunction,
    poisson_binomial_pmf,
    regular_gf_bounds,
    ugf_pmf_bounds_batch,
)
from .idca import IDCA, IDCAResult, IDCARun, IterationStats
from .kernels import (
    kernel_environment,
    kernel_stats,
    pdom_bounds_csr,
    total_kernel_seconds,
)
from .stop_criteria import (
    AnyOf,
    MaxIterations,
    NeverStop,
    StopCriterion,
    ThresholdDecision,
    UncertaintyBelow,
)

__all__ = [
    "CompleteDominationResult",
    "complete_domination_filter",
    "complete_domination_scan",
    "pdom_bounds",
    "pdom_bounds_from_partitions",
    "probabilistic_domination_bounds",
    "DominationCountBounds",
    "combine_weighted_bounds",
    "combine_weighted_bounds_arrays",
    "domination_count_bounds",
    "domination_count_bounds_batch",
    "UncertainGeneratingFunction",
    "poisson_binomial_pmf",
    "regular_gf_bounds",
    "ugf_pmf_bounds_batch",
    "IDCA",
    "IDCAResult",
    "IDCARun",
    "IterationStats",
    "kernel_environment",
    "kernel_stats",
    "pdom_bounds_csr",
    "total_kernel_seconds",
    "AnyOf",
    "MaxIterations",
    "NeverStop",
    "StopCriterion",
    "ThresholdDecision",
    "UncertaintyBelow",
]

"""repro — reproduction of "A Novel Probabilistic Pruning Approach to Speed Up
Similarity Queries in Uncertain Databases" (Bernecker et al., ICDE 2011).

The package implements the paper's IDCA algorithm (Iterative Domination Count
Approximation) together with every substrate it relies on: a continuous and
discrete uncertainty model, kd-tree decomposition of uncertainty regions, the
optimal spatial-domination criterion, uncertain generating functions, a
Monte-Carlo comparison partner, dataset generators and the probabilistic
query types of Section VI (threshold kNN, reverse kNN, inverse ranking and
expected-rank ranking).

Quickstart
----------
>>> from repro import (
...     uniform_rectangle_database, random_reference_object, IDCA, MaxIterations,
... )
>>> database = uniform_rectangle_database(500, max_extent=0.01, seed=7)
>>> query = random_reference_object(extent=0.01, seed=11)
>>> idca = IDCA(database)
>>> result = idca.domination_count(0, query, stop=MaxIterations(4))
>>> 0.0 <= result.bounds.uncertainty()
True
"""

from .core import (
    IDCA,
    AnyOf,
    DominationCountBounds,
    IDCAResult,
    IterationStats,
    MaxIterations,
    NeverStop,
    StopCriterion,
    ThresholdDecision,
    UncertainGeneratingFunction,
    UncertaintyBelow,
    complete_domination_filter,
    domination_count_bounds,
    domination_count_bounds_batch,
    pdom_bounds,
    poisson_binomial_pmf,
    probabilistic_domination_bounds,
    regular_gf_bounds,
)
from .geometry import (
    Interval,
    Rectangle,
    dominates,
    dominates_minmax,
    dominates_optimal,
    lp_distance,
    max_dist,
    min_dist,
)
from .uncertain import (
    BoxUniformObject,
    DecompositionTree,
    Delete,
    DiscreteObject,
    HistogramObject,
    Insert,
    MixtureObject,
    Partition,
    PointObject,
    TruncatedGaussianObject,
    UncertainDatabase,
    UncertainObject,
    Update,
    discretise_database,
    sample_database,
)
from .queries import (
    ProbabilisticMatch,
    RankDistribution,
    RankedObject,
    RankingResult,
    ThresholdQueryResult,
    expected_rank_ranking,
    probabilistic_inverse_ranking,
    probabilistic_knn_threshold,
    probabilistic_range_query,
    probabilistic_rknn_threshold,
    probability_within_range,
)
from .baselines import (
    MonteCarloDominationCount,
    compare_pruning_power,
    exact_domination_count_pmf,
    exact_pdom,
    expected_distance_knn,
    monte_carlo_pdom,
)
from .datasets import (
    IIPSimulationConfig,
    generate_query_workload,
    iip_iceberg_database,
    random_reference_object,
    target_by_mindist_rank,
    uniform_rectangle_database,
)
from .index import RTree
from .engine import (
    BatchReport,
    DominationCountQuery,
    ExecutorConfig,
    InverseRankingQuery,
    KNNQuery,
    MutationTicket,
    QueryEngine,
    QueryService,
    RangeQuery,
    RankingQuery,
    RefinementContext,
    RefinementScheduler,
    RKNNQuery,
    ServiceBatch,
)

__version__ = "8.0.0"

__all__ = [
    # core
    "IDCA",
    "IDCAResult",
    "IterationStats",
    "DominationCountBounds",
    "UncertainGeneratingFunction",
    "poisson_binomial_pmf",
    "regular_gf_bounds",
    "domination_count_bounds",
    "domination_count_bounds_batch",
    "complete_domination_filter",
    "pdom_bounds",
    "probabilistic_domination_bounds",
    "StopCriterion",
    "NeverStop",
    "MaxIterations",
    "UncertaintyBelow",
    "ThresholdDecision",
    "AnyOf",
    # geometry
    "Interval",
    "Rectangle",
    "lp_distance",
    "min_dist",
    "max_dist",
    "dominates",
    "dominates_optimal",
    "dominates_minmax",
    # uncertainty model
    "UncertainObject",
    "UncertainDatabase",
    "BoxUniformObject",
    "TruncatedGaussianObject",
    "MixtureObject",
    "DiscreteObject",
    "PointObject",
    "HistogramObject",
    "DecompositionTree",
    "Partition",
    "Insert",
    "Update",
    "Delete",
    "discretise_database",
    "sample_database",
    # queries
    "probabilistic_knn_threshold",
    "probabilistic_rknn_threshold",
    "probabilistic_inverse_ranking",
    "probabilistic_range_query",
    "probability_within_range",
    "expected_rank_ranking",
    "ProbabilisticMatch",
    "ThresholdQueryResult",
    "RankDistribution",
    "RankedObject",
    "RankingResult",
    # baselines
    "MonteCarloDominationCount",
    "monte_carlo_pdom",
    "exact_domination_count_pmf",
    "exact_pdom",
    "expected_distance_knn",
    "compare_pruning_power",
    # datasets
    "uniform_rectangle_database",
    "iip_iceberg_database",
    "IIPSimulationConfig",
    "generate_query_workload",
    "random_reference_object",
    "target_by_mindist_rank",
    # index
    "RTree",
    # engine
    "BatchReport",
    "ExecutorConfig",
    "QueryEngine",
    "QueryService",
    "ServiceBatch",
    "MutationTicket",
    "RefinementContext",
    "RefinementScheduler",
    "KNNQuery",
    "RKNNQuery",
    "RangeQuery",
    "RankingQuery",
    "InverseRankingQuery",
    "DominationCountQuery",
]

"""Uncertainty model: uncertain objects, databases, decomposition and sampling."""

from .base import Delete, Insert, Mutation, Update, UncertainDatabase, UncertainObject
from .continuous import BoxUniformObject, MixtureObject, TruncatedGaussianObject
from .discrete import DiscreteObject, PointObject
from .histogram import HistogramObject
from .decomposition import (
    CSRPartitionBatch,
    DecompositionNode,
    DecompositionTree,
    Partition,
    clear_csr_cache,
    csr_partitions_batch,
    decompose_object,
)
from .sampling import (
    discretise_database,
    discretise_object,
    pairwise_distances,
    sample_database,
)
from .sharedmem import (
    MutationDelta,
    SharedDatabaseExport,
    SharedDatabaseHandle,
    attach_shared_database,
    database_transport,
    shared_memory_available,
)

__all__ = [
    "MutationDelta",
    "SharedDatabaseExport",
    "SharedDatabaseHandle",
    "attach_shared_database",
    "database_transport",
    "shared_memory_available",
    "UncertainDatabase",
    "UncertainObject",
    "Insert",
    "Update",
    "Delete",
    "Mutation",
    "BoxUniformObject",
    "MixtureObject",
    "TruncatedGaussianObject",
    "DiscreteObject",
    "PointObject",
    "HistogramObject",
    "CSRPartitionBatch",
    "DecompositionNode",
    "DecompositionTree",
    "Partition",
    "clear_csr_cache",
    "csr_partitions_batch",
    "decompose_object",
    "discretise_database",
    "discretise_object",
    "pairwise_distances",
    "sample_database",
]

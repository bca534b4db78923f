"""Unified probabilistic filter–refinement query engine.

The engine layers (see ``docs/architecture.md``):

candidate source → shared refinement context → refinement scheduler →
result assembly.  :class:`QueryEngine` wires them together; the public
functions in :mod:`repro.queries` are thin adapters over it, and
:meth:`QueryEngine.evaluate_many` exposes batch evaluation with shared
caches across a whole workload — serially, or on the worker processes of
a :class:`QueryService`, which keeps one worker pool alive across every
batch; every lane starts from the engine's current snapshot (see
``engine/executor.py`` for the worker lifecycle and determinism contract,
and ``engine/service.py``).  The service tier is
fault-tolerant — crashed workers are respawned and their chunks re-driven,
batches can carry deadlines, and admission control bounds the queue — with
the failure contract expressed by the typed errors of ``engine/errors.py``.
"""

from .candidates import (
    CandidateSource,
    RangeClassification,
    RTreeCandidateSource,
    ScanCandidateSource,
    make_candidate_source,
)
from .context import CacheStats, RefinementContext
from .engine import QueryEngine
from .errors import (
    DeadlineExceeded,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    WorkerCrashError,
)
from .executor import (
    BatchReport,
    ChunkStats,
    ExecutorConfig,
    WorkerPool,
    affine_partition,
    affinity_lane,
)
from .requests import (
    DominationCountQuery,
    InverseRankingQuery,
    KNNQuery,
    QueryRequest,
    RangeQuery,
    RankingQuery,
    RKNNQuery,
)
from .scheduler import RefinementScheduler
from .service import MutationTicket, QueryService, ServiceBatch

__all__ = [
    "BatchReport",
    "CacheStats",
    "CandidateSource",
    "ChunkStats",
    "DeadlineExceeded",
    "ExecutorConfig",
    "DominationCountQuery",
    "InverseRankingQuery",
    "KNNQuery",
    "MutationTicket",
    "QueryEngine",
    "QueryRequest",
    "QueryService",
    "RangeClassification",
    "RangeQuery",
    "RankingQuery",
    "RefinementContext",
    "RefinementScheduler",
    "RKNNQuery",
    "RTreeCandidateSource",
    "ScanCandidateSource",
    "ServiceBatch",
    "ServiceClosedError",
    "ServiceError",
    "ServiceOverloadedError",
    "WorkerCrashError",
    "WorkerPool",
    "affine_partition",
    "affinity_lane",
    "make_candidate_source",
]

"""Declarative query specifications for the engine's batch API.

Each request dataclass mirrors the keyword surface of the corresponding
:class:`~repro.engine.engine.QueryEngine` method; ``evaluate_many`` executes a
heterogeneous sequence of them against one shared refinement context.  The
requests are plain data so workloads can be built up front (or generated) and
shipped to the engine in one call — or pickled to the worker processes of a
:class:`~repro.engine.service.QueryService` (requests therefore must stay
picklable: only the request — never the database — crosses the process
boundary per batch).
Every request carries a ``kind`` tag (used by the batch report) and an
``affinity_key`` (hashed to a worker lane, so requests that share cacheable
state run in the same chunk on the same worker).  Treat requests as immutable
inputs: under process execution a worker runs a *copy*, so side effects on a
request's ``stop`` criterion are not reflected in the caller's instance —
read decisions from the returned results instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, Iterable, Optional, Sequence, Union

import numpy as np

from ..core import StopCriterion
from ..queries.common import ObjectSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .engine import QueryEngine


def _spec_key(spec: "ObjectSpec") -> tuple:
    """Stable partitioning key of an object-or-index specification.

    Database positions key by value; ad-hoc objects key by identity (two
    requests share an affinity bucket only when they reference the *same*
    object, which is when worker-local caches can serve both).  The key is
    only ever used in the parent process, before chunks are shipped.
    """
    if isinstance(spec, (int, np.integer)):
        return ("index", int(spec))
    return ("object", id(spec))

__all__ = [
    "KNNQuery",
    "RKNNQuery",
    "RangeQuery",
    "RankingQuery",
    "InverseRankingQuery",
    "DominationCountQuery",
    "QueryRequest",
]


@dataclass
class KNNQuery:
    """Probabilistic threshold kNN request (Corollary 4)."""

    kind: ClassVar[str] = "knn"

    query: ObjectSpec
    k: int
    tau: float
    max_iterations: int = 10
    strict: bool = False

    def affinity_key(self) -> tuple:
        """Requests over the same query object share a worker's caches."""
        return _spec_key(self.query)

    def run(self, engine: "QueryEngine"):
        """Execute this request against ``engine`` (engine-internal hook)."""
        return engine.knn(
            self.query,
            k=self.k,
            tau=self.tau,
            max_iterations=self.max_iterations,
            strict=self.strict,
        )


@dataclass
class RKNNQuery:
    """Probabilistic threshold reverse-kNN request (Corollary 5)."""

    kind: ClassVar[str] = "rknn"

    query: ObjectSpec
    k: int
    tau: float
    max_iterations: int = 10
    candidate_indices: Optional[Iterable[int]] = None
    strict: bool = False

    def affinity_key(self) -> tuple:
        """Requests over the same query object share a worker's caches."""
        return _spec_key(self.query)

    def run(self, engine: "QueryEngine"):
        """Execute this request against ``engine`` (engine-internal hook)."""
        return engine.rknn(
            self.query,
            k=self.k,
            tau=self.tau,
            max_iterations=self.max_iterations,
            candidate_indices=self.candidate_indices,
            strict=self.strict,
        )


@dataclass
class RangeQuery:
    """Probabilistic threshold epsilon-range request."""

    kind: ClassVar[str] = "range"

    query: ObjectSpec
    epsilon: float
    tau: float
    max_depth: int = 6
    strict: bool = False

    def affinity_key(self) -> tuple:
        """Requests over the same query object share a worker's caches."""
        return _spec_key(self.query)

    def run(self, engine: "QueryEngine"):
        """Execute this request against ``engine`` (engine-internal hook)."""
        return engine.range(
            self.query,
            epsilon=self.epsilon,
            tau=self.tau,
            max_depth=self.max_depth,
            strict=self.strict,
        )


@dataclass
class RankingQuery:
    """Expected-rank similarity ranking request (Corollary 6)."""

    kind: ClassVar[str] = "ranking"

    query: ObjectSpec
    max_iterations: int = 6
    uncertainty_budget: float = 0.25
    candidate_indices: Optional[Iterable[int]] = None

    def affinity_key(self) -> tuple:
        """Requests over the same query object share a worker's caches."""
        return _spec_key(self.query)

    def run(self, engine: "QueryEngine"):
        """Execute this request against ``engine`` (engine-internal hook)."""
        return engine.ranking(
            self.query,
            max_iterations=self.max_iterations,
            uncertainty_budget=self.uncertainty_budget,
            candidate_indices=self.candidate_indices,
        )


@dataclass
class InverseRankingQuery:
    """Rank-distribution (inverse ranking) request (Corollary 3)."""

    kind: ClassVar[str] = "inverse_ranking"

    target: ObjectSpec
    reference: ObjectSpec
    max_iterations: int = 10
    uncertainty_budget: Optional[float] = None
    stop: Optional[StopCriterion] = None
    exclude_indices: Optional[Sequence[int]] = None

    def affinity_key(self) -> tuple:
        """Group by reference: experiment workloads rank many targets
        against one recurring reference object, whose decomposition dominates
        the per-request cache footprint."""
        return _spec_key(self.reference)

    def run(self, engine: "QueryEngine"):
        """Execute this request against ``engine`` (engine-internal hook)."""
        return engine.inverse_ranking(
            self.target,
            self.reference,
            max_iterations=self.max_iterations,
            uncertainty_budget=self.uncertainty_budget,
            stop=self.stop,
            exclude_indices=self.exclude_indices,
        )


@dataclass
class DominationCountQuery:
    """Raw IDCA domination-count request (Algorithm 1).

    The experiment workloads of Section VII are batches of these; routing
    them through the engine lets a whole workload share one refinement
    context.  ``stop`` criteria are stateful, so every request must carry its
    own instance.
    """

    kind: ClassVar[str] = "domination_count"

    target: ObjectSpec
    reference: ObjectSpec
    stop: Optional[StopCriterion] = None
    max_iterations: int = 10
    exclude_indices: Optional[Sequence[int]] = None
    k_cap: Optional[int] = field(default=None)

    def affinity_key(self) -> tuple:
        """Group by reference: experiment workloads rank many targets
        against one recurring reference object, whose decomposition dominates
        the per-request cache footprint."""
        return _spec_key(self.reference)

    def run(self, engine: "QueryEngine"):
        """Execute this request against ``engine`` (engine-internal hook)."""
        return engine.domination_count(
            self.target,
            self.reference,
            stop=self.stop,
            max_iterations=self.max_iterations,
            exclude_indices=self.exclude_indices,
            k_cap=self.k_cap,
        )


QueryRequest = Union[
    KNNQuery,
    RKNNQuery,
    RangeQuery,
    RankingQuery,
    InverseRankingQuery,
    DominationCountQuery,
]

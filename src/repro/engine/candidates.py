"""Candidate generation behind a single :class:`CandidateSource` protocol.

The query layer historically special-cased its two candidate paths: the
vectorised linear scan received a boolean exclusion mask while the R-tree
received a set of positions, and each query module picked one of them by hand.
The engine instead talks to one protocol; :class:`ScanCandidateSource` wraps
the numpy scan primitives and :class:`RTreeCandidateSource` wraps an
(optionally caller-supplied) STR-bulk-loaded R-tree.  Both accept the unified
exclusion specification of :func:`repro.index.normalize_exclude`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

import numpy as np

from ..geometry import Rectangle, max_dist_arrays, min_dist_arrays
from ..index import ExcludeSpec, RTree, normalize_exclude
from ..index.scan import knn_candidates as scan_knn_candidates
from ..uncertain import UncertainDatabase

__all__ = [
    "CandidateSource",
    "RangeClassification",
    "ScanCandidateSource",
    "RTreeCandidateSource",
    "make_candidate_source",
]


@dataclass(frozen=True)
class RangeClassification:
    """Outcome of the spatial filter step of a range query.

    Attributes
    ----------
    definite:
        Indices whose MBR lies entirely within ``epsilon`` of the query MBR —
        they satisfy the predicate with probability 1 and need no refinement.
    refine:
        Indices whose MinDist/MaxDist interval straddles ``epsilon``; only
        these require probabilistic evaluation.
    pruned:
        Number of objects whose MinDist already exceeds ``epsilon``.
    """

    definite: np.ndarray
    refine: np.ndarray
    pruned: int


@runtime_checkable
class CandidateSource(Protocol):
    """Uniform candidate-generation interface of the query engine."""

    def knn_candidates(
        self, query: Rectangle, k: int, p: float, exclude: ExcludeSpec
    ) -> np.ndarray:
        """Conservative kNN candidate indices (sorted)."""
        ...

    def range_classify(
        self, query: Rectangle, epsilon: float, p: float, exclude: ExcludeSpec
    ) -> RangeClassification:
        """Classify objects for an epsilon-range predicate."""
        ...

    def all_candidates(self, exclude: ExcludeSpec) -> np.ndarray:
        """Every non-excluded index (sorted) — the no-filter fallback."""
        ...

    def advance(self, database: UncertainDatabase, mutations: tuple) -> None:
        """Follow the database to a new snapshot (see ``UncertainDatabase.apply``)."""
        ...


class _DatabaseCandidateSource:
    """Shared plumbing of the concrete candidate sources."""

    def __init__(self, database: UncertainDatabase):
        self.database = database

    def __len__(self) -> int:
        return len(self.database)

    def advance(self, database: UncertainDatabase, mutations: tuple) -> None:
        """Rebind to the new snapshot (scan reads ``database.mbrs()`` fresh)."""
        self.database = database

    def all_candidates(self, exclude: ExcludeSpec) -> np.ndarray:
        """Every non-excluded database position, sorted ascending."""
        mask, _ = normalize_exclude(exclude, len(self.database))
        return np.flatnonzero(~mask)

    def _classify_subset(
        self,
        subset: np.ndarray,
        eligible: int,
        query: Rectangle,
        epsilon: float,
        p: float,
    ) -> RangeClassification:
        """Exact MinDist/MaxDist classification of a candidate subset.

        ``eligible`` is the number of non-excluded objects; everything outside
        ``subset`` counts as pruned along with subset members whose MinDist
        exceeds ``epsilon``.
        """
        if subset.shape[0] == 0:
            return RangeClassification(
                definite=subset, refine=subset, pruned=eligible
            )
        query_arr = query.to_array()
        mbrs = self.database.mbrs()[subset]
        min_d = min_dist_arrays(mbrs, query_arr, p)
        max_d = max_dist_arrays(mbrs, query_arr, p)
        definite = subset[max_d <= epsilon]
        refine = subset[(max_d > epsilon) & (min_d <= epsilon)]
        return RangeClassification(
            definite=definite,
            refine=refine,
            pruned=eligible - definite.shape[0] - refine.shape[0],
        )


class ScanCandidateSource(_DatabaseCandidateSource):
    """Candidate generation via the vectorised linear scan."""

    def knn_candidates(
        self,
        query: Rectangle,
        k: int,
        p: float,
        exclude: ExcludeSpec,
        *,
        min_dists: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Conservative kNN candidates via one vectorised MinDist/MaxDist pass.

        ``min_dists`` optionally supplies the MinDist half of that pass (the
        query's ``reference_min_dists`` profile over this snapshot).
        """
        mask, _ = normalize_exclude(exclude, len(self.database))
        return scan_knn_candidates(
            self.database.mbrs(), query, k, p=p, exclude=mask, min_dists=min_dists
        )

    def range_classify(
        self, query: Rectangle, epsilon: float, p: float, exclude: ExcludeSpec
    ) -> RangeClassification:
        """Classify all non-excluded objects by exact MinDist/MaxDist."""
        subset = self.all_candidates(exclude)
        return self._classify_subset(subset, subset.shape[0], query, epsilon, p)


class RTreeCandidateSource(_DatabaseCandidateSource):
    """Candidate generation via an STR bulk-loaded R-tree.

    The tree is built lazily from the database MBRs unless one is supplied
    (e.g. a tree shared with other engines over the same database).
    """

    def __init__(self, database: UncertainDatabase, rtree: Optional[RTree] = None):
        super().__init__(database)
        self._rtree = rtree

    @property
    def rtree(self) -> RTree:
        """The underlying R-tree, bulk-loaded on first access when not supplied."""
        if self._rtree is None:
            self._rtree = RTree(self.database.mbrs())
        return self._rtree

    def advance(self, database: UncertainDatabase, mutations: tuple) -> None:
        """Maintain the R-tree incrementally across a snapshot boundary.

        Inserts, updates and deletes are applied to the existing tree (MBRs
        re-tightened along the touched paths) instead of bulk-loading a new
        one.  Candidate sets are tree-shape-independent, so the incremental
        tree answers queries identically to a fresh build.  A tree that was
        never built stays unbuilt — it will bulk-load lazily from the new
        snapshot.
        """
        from ..uncertain.base import Delete, Insert, Update

        tree = self._rtree
        self.database = database
        if tree is None:
            return
        for mutation in mutations:
            if isinstance(mutation, Insert):
                tree.insert(mutation.obj.mbr.to_array())
            elif isinstance(mutation, Update):
                tree.update(mutation.position, mutation.obj.mbr.to_array())
            elif isinstance(mutation, Delete):
                tree.delete(mutation.position)

    def knn_candidates(
        self, query: Rectangle, k: int, p: float, exclude: ExcludeSpec
    ) -> np.ndarray:
        """Conservative kNN candidates from a best-first R-tree traversal."""
        _, indices = normalize_exclude(exclude, len(self.database))
        return self.rtree.knn_candidates(query, k, p=p, exclude=indices)

    def range_classify(
        self, query: Rectangle, epsilon: float, p: float, exclude: ExcludeSpec
    ) -> RangeClassification:
        """Classify via an R-tree window query over the epsilon-expanded MBR."""
        mask, _ = normalize_exclude(exclude, len(self.database))
        eligible = int(np.count_nonzero(~mask))
        # A per-dimension expansion of the query MBR by epsilon yields a
        # superset of {MinDist <= epsilon} for every Lp norm with p >= 1:
        # a gap larger than epsilon in any single dimension already implies
        # an Lp distance above epsilon.
        expanded = Rectangle.from_bounds(
            np.asarray(query.lows) - epsilon, np.asarray(query.highs) + epsilon
        )
        subset = self.rtree.range_query(expanded)
        subset = subset[~mask[subset]]
        return self._classify_subset(subset, eligible, query, epsilon, p)


def make_candidate_source(
    database: UncertainDatabase, rtree: Optional[RTree] = None
) -> CandidateSource:
    """Default source selection: R-tree when one is supplied, scan otherwise."""
    if rtree is not None:
        return RTreeCandidateSource(database, rtree)
    return ScanCandidateSource(database)

"""Shared refinement state reused across candidates and across queries.

A single query evaluates many candidates against the same query object; a
batch evaluates many queries against the same database.  Most of the work
IDCA performs per candidate is positionally identical across those runs:

* the decomposition kd-trees of the query object and of the database objects
  (influence objects recur between candidates and between queries), and
* the domination-bound matrix columns produced by the batched pair-bounds
  kernel: for one candidate at one depth against one (target grid, reference
  grid), the ``(num_pairs,)`` lower/upper bound vectors over *all* partition
  pairs are deterministic functions of the key, so an entry is stored —
  and served — as a whole array, and a cache hit removes the candidate's
  entire column from the next kernel call.

:class:`RefinementContext` owns both memos and hands out IDCA instances wired
to them, so every run launched through the same context — including every
query of a batch — amortises the decomposition and bound computations.

Each worker lane of a :class:`~repro.engine.service.QueryService` holds its
own context: the memo lives and dies with its process.  Columns are
deterministic functions of their key, so a lane that starts cold computes
exactly the columns a warm one would have served.
"""

from __future__ import annotations

from typing import Optional

from ..core import IDCA
from ..core.idca import _TREE_CACHE_MAX, _evict_oldest_tenth
from ..geometry import DominationCriterion
from ..uncertain import DecompositionTree, UncertainDatabase, UncertainObject
from ..uncertain.decomposition import AxisPolicy

__all__ = ["CacheStats", "RefinementContext"]


class CacheStats(dict):
    """A dict that counts lookup hits and misses (for benchmark reporting).

    Since the kernel refactor one entry is a whole bounds-matrix column, so a
    single hit now stands for ``num_pairs`` scalar bounds served at once.
    """

    def __init__(self) -> None:
        super().__init__()
        self.hits = 0
        self.misses = 0

    def get(self, key, default=None):
        """Dict lookup that tallies the hit/miss counters as a side effect."""
        value = super().get(key, default)
        if value is default:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def reset_counters(self) -> None:
        """Zero the hit/miss counters (cache contents untouched)."""
        self.hits = 0
        self.misses = 0


class RefinementContext:
    """Decomposition and domination-bound memos shared between IDCA runs.

    Parameters
    ----------
    database:
        The uncertain database all runs operate on.  A context must never be
        shared between engines over different databases — the caches key
        influence objects by their database position.
    axis_policy:
        Split-axis policy used for every decomposition tree the context
        creates (and for the IDCA instances it hands out), so cached trees
        are valid for every consumer.
    """

    def __init__(
        self,
        database: UncertainDatabase,
        axis_policy: AxisPolicy = "round_robin",
    ):
        self.database = database
        self.axis_policy: AxisPolicy = axis_policy
        self.tree_cache: dict[int, DecompositionTree] = {}
        self.pair_bounds_cache: CacheStats = CacheStats()
        self._idca_instances: dict[tuple, IDCA] = {}

    def __reduce__(self):
        """Pickle as (database, axis_policy) — caches rebuild empty.

        Cached state must never cross a process boundary: decomposition trees
        are keyed by object identity (meaningless in another process) and
        pair-bounds columns are keyed by process-unique tree tokens.  Reducing
        to the constructor arguments makes a context cheap to ship to worker
        processes — each worker rebuilds its own empty, *local* caches (see
        ``engine/executor.py``).  Memoised bounds are deterministic, so
        rebuilding them locally never changes results.

        Only lanes started by ``spawn`` / ``forkserver`` unpickle a context;
        a forked lane inherits the parent's.
        """
        return (type(self), (self.database, self.axis_policy))

    # ------------------------------------------------------------------ #
    # shared resources
    # ------------------------------------------------------------------ #
    def tree_for(self, obj: UncertainObject) -> DecompositionTree:
        """Decomposition tree of ``obj``, cached by object identity.

        Bounded like the IDCA-side cache: a context serving a long stream of
        transient query objects must not grow without limit.  Evicted trees
        are simply rebuilt on next use; memoised pair bounds stay safe
        because they key trees by process-unique token, not ``id()``.
        """
        key = id(obj)
        tree = self.tree_cache.get(key)
        if tree is None:
            _evict_oldest_tenth(self.tree_cache, _TREE_CACHE_MAX)
            tree = DecompositionTree(obj, axis_policy=self.axis_policy)
            self.tree_cache[key] = tree
        return tree

    def idca_for(
        self,
        p: float = 2.0,
        criterion: DominationCriterion = "optimal",
        k_cap: Optional[int] = None,
    ) -> IDCA:
        """An IDCA instance wired to the shared caches, memoised by parameters.

        Instances only differ in scalar configuration; the expensive state
        (trees, pair bounds) lives in the context, so handing the same
        instance to every query of a batch is both safe and what makes the
        batch fast.
        """
        key = (p, criterion, k_cap)
        idca = self._idca_instances.get(key)
        if idca is None:
            idca = IDCA(
                self.database,
                p=p,
                criterion=criterion,
                axis_policy=self.axis_policy,
                k_cap=k_cap,
                tree_cache=self.tree_cache,
                pair_bounds_cache=self.pair_bounds_cache,
            )
            self._idca_instances[key] = idca
        return idca

    # ------------------------------------------------------------------ #
    # snapshot advancement
    # ------------------------------------------------------------------ #
    def advance(
        self,
        database: UncertainDatabase,
        removed_objects: "tuple[UncertainObject, ...] | list[UncertainObject]" = (),
    ) -> None:
        """Move the context to a new database snapshot, evicting by generation.

        ``removed_objects`` are the object instances the mutation replaced or
        deleted (every other object is shared between the snapshots).  Only
        their state is dropped: the decomposition trees cached for them and
        the local pair-bounds columns whose key references those trees'
        tokens.  Everything else stays warm — which is the whole point of the
        snapshot model; a wholesale :meth:`clear` would throw away every
        column that is still valid.

        Staleness is structurally impossible: pair keys use process-unique
        tree tokens, and a replaced object's new tree gets a new token, so a
        lookup for the new content can never land on a column computed for
        the old content.  The evictions here only free memory.
        """
        self.database = database
        dead_tokens: set[int] = set()
        for obj in removed_objects:
            tree = self.tree_cache.pop(id(obj), None)
            if tree is not None:
                dead_tokens.add(tree.token)
        if dead_tokens:
            # a key is ((candidate token, depth), (target token, depth),
            # (reference token, depth), config)
            cache = self.pair_bounds_cache
            stale = [
                key
                for key in cache
                if not dead_tokens.isdisjoint((key[0][0], key[1][0], key[2][0]))
            ]
            for key in stale:
                del cache[key]
        for idca in self._idca_instances.values():
            idca.database = database

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Cache occupancy and hit counters (used by the batch reports)."""
        cache = self.pair_bounds_cache
        return {
            "trees": len(self.tree_cache),
            "pair_bounds": len(cache),
            "pair_bounds_hits": cache.hits,
            "pair_bounds_misses": cache.misses,
        }

    def clear(self) -> None:
        """Drop all cached state (keeps the handed-out IDCA instances valid)."""
        self.tree_cache.clear()
        self.pair_bounds_cache.clear()
        self.pair_bounds_cache.reset_counters()

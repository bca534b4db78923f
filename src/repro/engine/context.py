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

A worker lane of a service with a warm-start directory attaches its
:class:`~repro.engine.boundstore.WarmStartFile`
(:meth:`RefinementContext.attach_warm_start`); the pair-bounds memo then
becomes a :class:`TieredPairBoundsCache` that serves local misses from the
file's columns and appends freshly computed ones.  Columns are deterministic
functions of their (process-independent) key, so results are bit-identical
with or without the file.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core import IDCA
from ..core.idca import _PAIR_BOUNDS_CACHE_MAX, _TREE_CACHE_MAX, _evict_oldest_tenth
from ..geometry import DominationCriterion
from ..uncertain import DecompositionTree, UncertainDatabase, UncertainObject
from ..uncertain.decomposition import AxisPolicy
from .boundstore import encode_stable_key, stable_object_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .boundstore import WarmStartFile

__all__ = ["CacheStats", "RefinementContext", "TieredPairBoundsCache"]

#: Bound on the encoded-key memo; on overflow it is simply reset (entries
#: rebuild on use), matching the churn bound of the pair-bounds cache.
_ENCODED_KEYS_MAX = _PAIR_BOUNDS_CACHE_MAX


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


class TieredPairBoundsCache(CacheStats):
    """Pair-bounds memo backed by a lane's warm-start file.

    ``hits``/``misses`` count the local dict.  A local miss is looked up in
    the file's columns (``shared_hits``/``shared_misses``) and a hit is
    installed locally; every locally inserted column is appended to the
    file (``shared_publishes`` counts the appends).  The file only holds
    columns some lane computed for the same stable key, so consulting it
    never changes results.
    """

    def __init__(self, context: "RefinementContext", warm: "WarmStartFile") -> None:
        super().__init__()
        self._context = context
        self._warm = warm
        self.shared_hits = 0
        self.shared_misses = 0
        self.shared_publishes = 0

    def get(self, key, default=None):
        """Local dict first, then the warm-start columns."""
        value = dict.get(self, key, default)
        if value is not default:
            self.hits += 1
            return value
        encoded = self._context.stable_pair_key(key)
        if encoded is not None:
            entry = self._warm.columns.get(encoded)
            if entry is not None:
                self.shared_hits += 1
                # install locally, evicting like the compute path does
                _evict_oldest_tenth(self, _PAIR_BOUNDS_CACHE_MAX)
                dict.__setitem__(self, key, entry)
                return entry
            self.shared_misses += 1
        self.misses += 1
        return default

    def __setitem__(self, key, value) -> None:
        """Insert locally and append the column to the warm-start file."""
        dict.__setitem__(self, key, value)
        encoded = self._context.stable_pair_key(key)
        if encoded is not None and self._warm.append(encoded, value):
            self.shared_publishes += 1

    def reset_counters(self) -> None:
        """Zero all hit/miss/append counters (cache contents untouched)."""
        super().reset_counters()
        self.shared_hits = 0
        self.shared_misses = 0
        self.shared_publishes = 0


class _RegisteringTreeCache(dict):
    """Tree cache that reports every admitted tree to its context.

    The context needs a ``tree token -> stable object key`` translation to
    derive warm-start keys, and trees enter the cache from two places
    (:meth:`RefinementContext.tree_for` and ``IDCA._tree_for``, which share
    this mapping).  Hooking ``__setitem__``/``__delitem__`` catches both
    without the IDCA layer knowing the file exists.
    """

    def __init__(self, context: "RefinementContext") -> None:
        super().__init__()
        self._context = context

    def __setitem__(self, key, tree) -> None:
        """Admit a tree and register its token translation."""
        super().__setitem__(key, tree)
        self._context._register_tree(tree)

    def __delitem__(self, key) -> None:
        """Evict a tree and drop its token translation."""
        tree = super().pop(key)
        self._context._token_keys.pop(tree.token, None)


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
        #: The lane's :class:`~repro.engine.boundstore.WarmStartFile`, or
        #: ``None`` for purely local memoisation.
        self.warm_start: Optional["WarmStartFile"] = None
        self._warm_generations = 0
        self._token_keys: dict[int, Optional[tuple]] = {}
        self._encoded_keys: dict[tuple, Optional[bytes]] = {}
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

        A warm-start file is likewise never shipped: worker lanes open
        their own through the pool initializer.  Only lanes started by
        ``spawn`` / ``forkserver`` unpickle a context; a forked lane inherits
        the parent's.
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
    # warm-start file
    # ------------------------------------------------------------------ #
    def attach_warm_start(self, warm: "WarmStartFile", generations: int) -> None:
        """Back the pair-bounds memo with a lane's warm-start file.

        Only columns whose database members all belong to the snapshot the
        file's handshake covers — generation below ``generations`` — are
        read from or appended to the file: a generation issued by a later
        mutation names different content in a restarted service that
        mutates differently.  The worker-pool initializer passes the bound
        of the snapshot the service was built over, whatever epoch the lane
        starts at.  Swaps both
        caches for their warm-start versions and forgets handed-out IDCA
        instances, which hold the old ones.
        """
        self.warm_start = warm
        self._warm_generations = generations
        trees = self.tree_cache
        self.tree_cache = _RegisteringTreeCache(self)
        for key, tree in trees.items():
            self.tree_cache[key] = tree
        self.pair_bounds_cache = TieredPairBoundsCache(self, warm)
        self._encoded_keys.clear()
        self._idca_instances.clear()

    def _register_tree(self, tree: DecompositionTree) -> None:
        """Record the stable identity behind a tree's process-unique token.

        Identities the warm-start file must not hold register as ``None``.
        """
        if tree.token in self._token_keys:
            return
        identity = stable_object_key(self.database, tree.obj)
        if identity[0] == "db" and identity[2] >= self._warm_generations:
            identity = None
        self._token_keys[tree.token] = identity

    def stable_pair_key(self, key: tuple) -> Optional[bytes]:
        """Translate a process-local memo key into encoded stable-key bytes.

        The local key is ``((candidate token, depth), (target token, depth),
        (reference token, depth), (p, criterion))``; each token is swapped
        for the stable identity registered at tree creation.  Returns
        ``None`` — "stay local" — when any token is unknown (a tree created
        outside this context's caches) or registered as ``None``.

        The translation is memoised per local key (bounded), because the
        tiered cache encodes each cold key twice — once on the lookup miss
        and once when appending the freshly computed column.
        """
        if key in self._encoded_keys:
            return self._encoded_keys[key]
        encoded = self._encode_pair_key(key)
        if len(self._encoded_keys) >= _ENCODED_KEYS_MAX:
            self._encoded_keys.clear()  # cheap reset; entries rebuild on use
        self._encoded_keys[key] = encoded
        return encoded

    def _encode_pair_key(self, key: tuple) -> Optional[bytes]:
        """Uncached translation behind :meth:`stable_pair_key`."""
        try:
            (candidate, target, reference, config) = key
        except (TypeError, ValueError):  # pragma: no cover - foreign key shape
            return None
        stable = []
        for token, depth in (candidate, target, reference):
            identity = self._token_keys.get(token)
            if identity is None:
                return None
            stable.append((identity, depth))
        return encode_stable_key(("pb1", self.axis_policy, *stable, config))

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

        Staleness is structurally impossible: local pair keys use
        process-unique tree tokens (a replaced object's new tree gets a new
        token), and warm-start keys fold the per-object generation (a
        replaced object gets a fresh generation), so a lookup for the new
        content can never land on a column computed for the old content.
        The evictions here free memory and unregister dead token
        translations; the token translations of surviving trees are
        recomputed against the new snapshot because a delete may have
        shifted member positions.
        """
        self.database = database
        dead_tokens: set[int] = set()
        for obj in removed_objects:
            tree = dict.get(self.tree_cache, id(obj))
            if tree is not None:
                dead_tokens.add(tree.token)
                del self.tree_cache[id(obj)]
        if dead_tokens:
            cache = self.pair_bounds_cache
            stale = []
            for key in cache:
                try:
                    (candidate, target, reference, _config) = key
                    parts = (candidate[0], target[0], reference[0])
                except (TypeError, ValueError, IndexError):  # pragma: no cover
                    continue
                if any(token in dead_tokens for token in parts):
                    stale.append(key)
            for key in stale:
                dict.__delitem__(cache, key)
        self._token_keys.clear()
        self._encoded_keys.clear()
        if self.warm_start is not None:
            for tree in self.tree_cache.values():
                self._register_tree(tree)
        for idca in self._idca_instances.values():
            idca.database = database

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Cache occupancy and hit counters (used by the batch reports).

        ``pair_bounds_hits``/``pair_bounds_misses`` describe the local memo;
        the ``shared_*`` counters describe the warm-start file (all zero
        while none is attached).
        """
        cache = self.pair_bounds_cache
        return {
            "trees": len(self.tree_cache),
            "pair_bounds": len(cache),
            "pair_bounds_hits": cache.hits,
            "pair_bounds_misses": cache.misses,
            "shared_hits": getattr(cache, "shared_hits", 0),
            "shared_misses": getattr(cache, "shared_misses", 0),
            "shared_publishes": getattr(cache, "shared_publishes", 0),
        }

    def clear(self) -> None:
        """Drop all cached state (keeps the handed-out IDCA instances valid)."""
        self.tree_cache.clear()
        self._token_keys.clear()
        self._encoded_keys.clear()
        self.pair_bounds_cache.clear()
        self.pair_bounds_cache.reset_counters()

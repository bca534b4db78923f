"""The per-process pair-bounds memo of ``engine/context.py``.

A :class:`RefinementContext` holds two plain in-memory memos — decomposition
trees and domination-bound matrix columns — and nothing of either leaves
its process.  The contract under test:

* :class:`CacheStats` tallies hits and misses of ``get`` only;
* ``stats()`` reports exactly the four memo readings, and ``clear()``
  empties both memos and zeroes the counters;
* the memo never changes a result: a repeated request is served entirely
  from it, and a cleared memo recomputes the same bytes, for every request
  kind;
* :meth:`RefinementContext.advance` drops the tree and every column of a
  replaced or deleted object — whichever role its token plays in a column
  key — keeps everything else, and leaves a context whose answers equal a
  fresh engine's over the mutated content.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import random_reference_object, uniform_rectangle_database
from repro.engine import (
    CacheStats,
    DominationCountQuery,
    InverseRankingQuery,
    KNNQuery,
    QueryEngine,
    RangeQuery,
    RankingQuery,
    RefinementContext,
    RKNNQuery,
)
from repro.geometry import Rectangle
from repro.uncertain import BoxUniformObject, Delete, Insert, UncertainDatabase, Update


# extents large enough that every memo-using kind computes columns, and that
# an object's token appears as candidate, target and reference in some key
@pytest.fixture(scope="module")
def database():
    return uniform_rectangle_database(num_objects=30, max_extent=0.1, seed=3)


@pytest.fixture(scope="module")
def reference():
    return random_reference_object(extent=0.1, seed=4, label="query")


_KINDS = (
    "knn", "rknn", "range", "ranking", "inverse_ranking", "domination_count"
)


def _request(kind: str, reference):
    """A fresh request of ``kind`` (stop criteria are stateful)."""
    return {
        "knn": lambda: KNNQuery(reference, k=3, tau=0.5, max_iterations=3),
        "rknn": lambda: RKNNQuery(
            reference, k=2, tau=0.5, max_iterations=2, candidate_indices=range(8)
        ),
        "range": lambda: RangeQuery(reference, epsilon=0.3, tau=0.5, max_depth=3),
        "ranking": lambda: RankingQuery(
            reference, max_iterations=2, candidate_indices=range(8)
        ),
        "inverse_ranking": lambda: InverseRankingQuery(5, reference, max_iterations=2),
        "domination_count": lambda: DominationCountQuery(3, 9, max_iterations=3),
    }[kind]()


def _snapshot(result):
    """Timing-free snapshot of one result — bit-level comparison material."""
    if hasattr(result, "matches"):
        return [
            (m.index, m.probability_lower, m.probability_upper,
             m.decision, m.iterations, m.sequence)
            for bucket in (result.matches, result.undecided, result.rejected)
            for m in bucket
        ] + [result.pruned]
    if hasattr(result, "ranking"):
        return [
            (e.index, e.expected_rank_lower, e.expected_rank_upper, e.iterations)
            for e in result.ranking
        ]
    # domination count (an IDCAResult) or inverse ranking
    bounds = getattr(result, "bounds", result)
    return (list(map(float, bounds.lower)), list(map(float, bounds.upper)))


def _evaluate(engine, kind, reference):
    (result,) = engine.evaluate_many([_request(kind, reference)])
    return _snapshot(result)


def _box(center, extent=0.05, label=None):
    return BoxUniformObject(
        Rectangle.from_center_extent(np.asarray(center, dtype=float), extent),
        label=label,
    )


def _key_tokens(key) -> tuple:
    """Tree tokens a memo key names: (candidate, target, reference)."""
    (candidate, _depth), (target, _), (reference, _), _config = key
    return candidate, target, reference


# --------------------------------------------------------------------- #
# CacheStats: a dict that counts get() hits and misses
# --------------------------------------------------------------------- #
def test_get_of_a_stored_key_counts_a_hit():
    cache = CacheStats()
    cache["column"] = value = np.zeros(3)
    assert cache.get("column") is value
    assert (cache.hits, cache.misses) == (1, 0)


def test_get_of_a_missing_key_counts_a_miss_and_returns_the_default():
    cache = CacheStats()
    assert cache.get("column") is None
    assert cache.get("column", "fallback") == "fallback"
    assert (cache.hits, cache.misses) == (0, 2)


def test_indexing_and_membership_count_nothing():
    cache = CacheStats()
    cache["column"] = 1
    assert "column" in cache and cache["column"] == 1
    assert (cache.hits, cache.misses) == (0, 0)


def test_reset_counters_keeps_the_contents():
    cache = CacheStats()
    cache["column"] = 1
    cache.get("column")
    cache.get("other")
    cache.reset_counters()
    assert (cache.hits, cache.misses) == (0, 0)
    assert dict(cache) == {"column": 1}


# --------------------------------------------------------------------- #
# stats() and clear()
# --------------------------------------------------------------------- #
def test_stats_reports_exactly_the_four_memo_readings(database, reference):
    engine = QueryEngine(database)
    _evaluate(engine, "knn", reference)
    stats = engine.context.stats()
    assert set(stats) == {"trees", "pair_bounds", "pair_bounds_hits", "pair_bounds_misses"}
    assert stats["trees"] == len(engine.context.tree_cache) > 0
    assert stats["pair_bounds"] == len(engine.context.pair_bounds_cache) > 0


def test_clear_empties_both_memos_and_zeroes_the_counters(database, reference):
    engine = QueryEngine(database)
    _evaluate(engine, "knn", reference)
    _evaluate(engine, "knn", reference)
    engine.context.clear()
    assert engine.context.stats() == {
        "trees": 0, "pair_bounds": 0, "pair_bounds_hits": 0, "pair_bounds_misses": 0,
    }
    assert type(engine.context.pair_bounds_cache) is CacheStats


# --------------------------------------------------------------------- #
# the memo never changes a result
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", _KINDS)
def test_a_repeated_request_is_served_entirely_from_the_memo(database, reference, kind):
    engine = QueryEngine(database)
    first = _evaluate(engine, kind, reference)
    before = engine.context.stats()
    assert _evaluate(engine, kind, reference) == first
    after = engine.context.stats()
    # no new tree or column, every lookup of the repeat a hit
    assert after["trees"] == before["trees"]
    assert after["pair_bounds"] == before["pair_bounds"]
    assert after["pair_bounds_misses"] == before["pair_bounds_misses"]
    assert after["pair_bounds_hits"] - before["pair_bounds_hits"] == before["pair_bounds_misses"]
    # range queries refine by partition distances, never through the memo
    assert (before["pair_bounds"] > 0) == (kind != "range")


@pytest.mark.parametrize("kind", _KINDS)
def test_a_cleared_memo_recomputes_the_same_result(database, reference, kind):
    engine = QueryEngine(database)
    warm = _evaluate(engine, kind, reference)
    columns = engine.context.stats()["pair_bounds"]
    engine.context.clear()
    assert _evaluate(engine, kind, reference) == warm
    assert engine.context.stats()["pair_bounds"] == columns
    assert warm == _evaluate(QueryEngine(database), kind, reference)


# --------------------------------------------------------------------- #
# advance: per-object eviction on a new snapshot
# --------------------------------------------------------------------- #
def _warm_context(database) -> RefinementContext:
    """A context whose memo names object 3 in every key role."""
    engine = QueryEngine(database)
    engine.domination_count(3, 9, max_iterations=3)  # 3 as target
    engine.domination_count(4, 9, max_iterations=3)  # 3 as influence candidate
    engine.domination_count(4, 3, max_iterations=3)  # 3 as reference
    return engine.context


@pytest.mark.parametrize("role", ["candidate", "target", "reference"])
def test_advance_drops_columns_naming_the_replaced_tree_in_each_role(database, role):
    context = _warm_context(database)
    slot = ("candidate", "target", "reference").index(role)
    replaced = database[3]
    dead = context.tree_cache[id(replaced)].token
    columns = dict(context.pair_bounds_cache)
    in_role = {key for key in columns if _key_tokens(key)[slot] == dead}
    assert in_role

    context.advance(database.apply([Update(3, _box([0.5, 0.5]))]), [replaced])

    assert not in_role & set(context.pair_bounds_cache)
    assert all(dead not in _key_tokens(key) for key in context.pair_bounds_cache)
    # every column that does not name the replaced tree is kept, same array
    kept = {key for key in columns if dead not in _key_tokens(key)}
    assert set(context.pair_bounds_cache) == kept
    for key in kept:
        assert dict.__getitem__(context.pair_bounds_cache, key) is columns[key]


def test_advance_after_a_delete_drops_the_deleted_objects_state(database):
    context = _warm_context(database)
    deleted = database[3]
    dead = context.tree_cache[id(deleted)].token
    trees = dict(context.tree_cache)
    snapshot = database.apply([Delete(3)])
    context.advance(snapshot, [deleted])
    assert all(dead not in _key_tokens(key) for key in context.pair_bounds_cache)
    assert context.tree_cache == {k: t for k, t in trees.items() if k != id(deleted)}
    assert context.database is snapshot


def test_advance_after_an_insert_keeps_every_column(database):
    context = _warm_context(database)
    columns = dict(context.pair_bounds_cache)
    trees = dict(context.tree_cache)
    snapshot = database.apply([Insert(_box([0.5, 0.5], label="new"))])
    context.advance(snapshot, [])
    assert dict(context.pair_bounds_cache) == columns
    assert context.tree_cache == trees
    assert context.database is snapshot


def test_advance_over_an_object_without_a_tree_keeps_every_column(database):
    context = _warm_context(database)
    untouched = next(
        obj for obj in database.objects if id(obj) not in context.tree_cache
    )
    columns = dict(context.pair_bounds_cache)
    position = database.position_of(untouched)
    context.advance(database.apply([Update(position, _box([0.5, 0.5]))]), [untouched])
    assert dict(context.pair_bounds_cache) == columns


def test_advance_drops_the_state_of_every_removed_object(database):
    context = _warm_context(database)
    QueryEngine(database, context=context).domination_count(5, 12, max_iterations=3)
    removed = [database[3], database[9]]
    dead = {context.tree_cache[id(obj)].token for obj in removed}
    kept = {
        key for key in context.pair_bounds_cache if dead.isdisjoint(_key_tokens(key))
    }
    assert kept
    snapshot = database.apply(
        [Update(3, _box([0.4, 0.4])), Update(9, _box([0.6, 0.6]))]
    )
    context.advance(snapshot, removed)
    assert set(context.pair_bounds_cache) == kept
    assert all(id(obj) not in context.tree_cache for obj in removed)


_MUTATIONS = {
    "update": lambda: [Update(3, _box([0.45, 0.55])), Update(9, _box([0.55, 0.45]))],
    "insert": lambda: [Insert(_box([0.5, 0.5], label="new"))],
    "delete": lambda: [Delete(3)],
}


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
def test_an_advanced_context_answers_like_a_fresh_engine(
    database, reference, mutation, kind
):
    engine = QueryEngine(database)
    for warm_kind in _KINDS:  # every kind leaves columns in the memo
        _evaluate(engine, warm_kind, reference)
    snapshot = engine.apply_mutations(_MUTATIONS[mutation]())
    rebuilt = UncertainDatabase(list(snapshot.objects))
    assert _evaluate(engine, kind, reference) == _evaluate(
        QueryEngine(rebuilt), kind, reference
    )

"""Versioned mutable databases: snapshots, epochs, and the mutation path.

The contract under test (threaded through ``uncertain/base.py`` →
``engine/context.py`` → ``engine/service.py`` → ``gateway/server.py``):

* :meth:`UncertainDatabase.apply` returns a **new snapshot** at epoch + 1
  that shares every untouched object with its parent; the parent stays
  fully usable, and generations never alias two different contents within
  a lineage;
* the **equivalence invariant** — a query against a mutated database is
  bit-identical to the same query against a freshly built database with
  identical content — at every worker count;
* the service's **snapshot barrier**: a batch admitted at epoch E sees
  exactly snapshot E, mutations and batches being sequenced through one
  dispatcher queue;
* **warm caches**: after mutating a small fraction of the objects, each
  lane's memo keeps serving the untouched columns and never serves a stale
  one (any staleness would break bit-identity);
* live worker lanes follow the parent across epochs by applying **mutation
  deltas**, and a lane respawned after a crash starts from the parent's
  current snapshot with no history to replay;
* the gateway applies mutations behind the barrier, and every
  ``/v1/query`` answer after a ``/v1/mutate`` equals a from-scratch
  serial evaluation over the mutated content.

The CI ``mutation`` job matrixes this module over both pool start methods
(``REPRO_TEST_START_METHOD``).
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import urllib.request

import numpy as np
import pytest

from repro.datasets import random_reference_object, uniform_rectangle_database
from repro.engine import (
    ExecutorConfig,
    InverseRankingQuery,
    KNNQuery,
    QueryEngine,
    QueryService,
    RangeQuery,
    RankingQuery,
    RKNNQuery,
)
from repro.engine.boundstore import stable_object_key
from repro.geometry import Rectangle
from repro.index import RTree
from repro.uncertain import (
    BoxUniformObject,
    Delete,
    DiscreteObject,
    Insert,
    UncertainDatabase,
    Update,
)

# The CI job matrixes the suite over start methods through this variable;
# locally it is unset and the platform default applies.
START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or None

def _box(center, extent=0.02, label=None):
    return BoxUniformObject(
        Rectangle.from_center_extent(np.asarray(center, dtype=float), extent),
        label=label,
    )


def _service(database, workers=2):
    return QueryService(
        QueryEngine(database),
        ExecutorConfig(workers=workers, start_method=START_METHOD),
    )


def _snapshot(results) -> list:
    """Timing-free result snapshot — bit-level comparison material."""
    snap = []
    for result in results:
        if hasattr(result, "matches"):
            snap.append(
                [
                    (m.index, m.probability_lower, m.probability_upper,
                     m.decision, m.iterations, m.sequence)
                    for bucket in (result.matches, result.undecided, result.rejected)
                    for m in bucket
                ]
                + [result.pruned]
            )
        elif hasattr(result, "ranking"):
            snap.append(
                [
                    (e.index, e.expected_rank_lower, e.expected_rank_upper, e.iterations)
                    for e in result.ranking
                ]
            )
        else:
            snap.append((list(map(float, result.lower)), list(map(float, result.upper))))
    return snap


def _fresh_snapshot(database, requests) -> list:
    """Serial evaluation over a freshly constructed copy of ``database``."""
    rebuilt = UncertainDatabase(list(database.objects))
    return _snapshot(QueryEngine(rebuilt).evaluate_many(requests))


@pytest.fixture(scope="module")
def database():
    return uniform_rectangle_database(num_objects=30, max_extent=0.05, seed=3)


@pytest.fixture(scope="module")
def reference():
    return random_reference_object(extent=0.05, seed=4, label="query")


@pytest.fixture(scope="module")
def requests(reference):
    return [
        KNNQuery(reference, k=3, tau=0.5, max_iterations=4),
        KNNQuery(7, k=2, tau=0.3, max_iterations=4),
        RKNNQuery(reference, k=2, tau=0.5, max_iterations=3, candidate_indices=range(12)),
        RangeQuery(reference, epsilon=0.3, tau=0.5, max_depth=3),
        RankingQuery(reference, max_iterations=2, candidate_indices=range(10)),
        InverseRankingQuery(5, reference, max_iterations=3),
    ]


def _mutation_steps(rng) -> list[list]:
    """Three seeded mutation batches: updates, insert+delete, a mixed one."""
    return [
        [
            Update(int(position), _box(rng.uniform(0.1, 0.9, size=2)))
            for position in rng.choice(25, size=3, replace=False)
        ],
        [
            Insert(_box(rng.uniform(0.1, 0.9, size=2), label="new-a")),
            Delete(int(rng.integers(13, 25))),
            Insert(_box(rng.uniform(0.1, 0.9, size=2), label="new-b")),
        ],
        [
            Update(int(rng.integers(0, 12)), _box(rng.uniform(0.1, 0.9, size=2))),
            Insert(_box(rng.uniform(0.1, 0.9, size=2), label="new-c")),
            Update(int(rng.integers(0, 12)), _box(rng.uniform(0.1, 0.9, size=2))),
        ],
    ]


# --------------------------------------------------------------------- #
# snapshot semantics: epochs, generations, structural sharing
# --------------------------------------------------------------------- #
def test_apply_returns_sharing_snapshot_and_leaves_parent_untouched(database):
    replacement = _box([0.5, 0.5], label="replacement")
    addition = _box([0.2, 0.8], label="addition")
    snapshot = database.apply([Update(3, replacement), Insert(addition), Delete(0)])

    # the parent is untouched: same epoch, content and generations
    assert database.epoch == 0
    assert len(database) == 30
    assert database.generations() == tuple(range(30))

    assert snapshot.epoch == 1
    assert len(snapshot) == 30  # 30 + 1 insert - 1 delete
    # delete(0) compacts positions; untouched objects are the same instances
    shared = sum(1 for obj in snapshot if database.position_of(obj) is not None)
    assert shared == 28  # everything except the replacement and the addition
    assert snapshot[2] is replacement  # position 3 shifted down by the delete
    assert snapshot[29] is addition

    # generations: untouched objects keep theirs, touched ones draw fresh
    # values above the parent's clock, and no counter ever repeats
    generations = snapshot.generations()
    assert len(set(generations)) == len(generations)
    fresh = set(generations) - set(database.generations())
    assert len(fresh) == 2
    assert all(g >= 30 for g in fresh)


def test_apply_interprets_batch_positions_sequentially():
    objects = [_box([0.1 * i + 0.05, 0.5], label=f"o{i}") for i in range(4)]
    database = UncertainDatabase(objects)
    # after Delete(0), position 0 addresses the former objects[1]
    replacement = _box([0.9, 0.9], label="replacement")
    snapshot = database.apply([Delete(0), Update(0, replacement)])
    assert snapshot[0] is replacement
    assert snapshot[1] is objects[2]


def test_apply_rejects_invalid_batches(database):
    with pytest.raises(IndexError):
        database.apply([Update(len(database), _box([0.5, 0.5]))])
    with pytest.raises(IndexError):
        database.apply([Delete(len(database))])
    with pytest.raises(ValueError, match="dimension"):
        database.apply([Insert(BoxUniformObject(
            Rectangle.from_bounds([0.0, 0.0, 0.0], [0.1, 0.1, 0.1])))])
    single = UncertainDatabase([_box([0.5, 0.5])])
    with pytest.raises(ValueError, match="at least one"):
        single.apply([Delete(0)])


def test_resolved_batches_replay_identically(database):
    mutations = [Update(2, _box([0.3, 0.3])), Insert(_box([0.6, 0.6]))]
    resolved = database.resolve_mutations(mutations)
    assert all(m.generation is not None for m in resolved)
    once = database.apply(resolved)
    again = database.apply(resolved)
    assert once.generations() == again.generations()
    # resolving is what apply() does internally, so contents agree too
    assert database.apply(mutations).generations() == once.generations()


def test_epoch_advances_once_per_apply(database):
    snapshot = database
    for expected in (1, 2, 3):
        snapshot = snapshot.apply([Update(0, _box([0.4, 0.4]))])
        assert snapshot.epoch == expected


# --------------------------------------------------------------------- #
# satellite: position_of is O(1) off a maintained identity index
# --------------------------------------------------------------------- #
def test_position_of_index_is_maintained_across_snapshots(database):
    snapshot = database.apply(
        [Update(3, _box([0.5, 0.5])), Delete(0), Insert(_box([0.2, 0.2]))]
    )
    # apply() hands the snapshot a maintained index instead of deferring a
    # full rebuild to the first lookup (the regression this test pins)
    assert snapshot._position_by_id is not None
    for position, obj in enumerate(snapshot):
        assert snapshot.position_of(obj) == position
    # the replaced object and the deleted object are not members
    assert snapshot.position_of(database[3]) is None
    assert snapshot.position_of(database[0]) is None
    # non-members stay non-members
    assert snapshot.position_of(_box([0.9, 0.9])) is None


# --------------------------------------------------------------------- #
# stable keys fold generations: staleness is structurally impossible
# --------------------------------------------------------------------- #
def test_stable_object_key_folds_generations(database):
    replacement = _box([0.5, 0.5])
    snapshot = database.apply([Update(3, replacement)])
    # untouched object at an unshifted position: the key survives the epoch,
    # so a key built from it still names the same content
    assert stable_object_key(snapshot, snapshot[7]) == stable_object_key(
        database, database[7]
    )
    # the new content never reuses the old content's key
    old_key = stable_object_key(database, database[3])
    new_key = stable_object_key(snapshot, replacement)
    assert old_key != new_key
    assert old_key == ("db", 3, 3)
    assert new_key == ("db", 3, 30)


def test_stable_object_key_never_aliases_after_delete(database):
    snapshot = database.apply([Delete(5)])
    # positions behind the deletion point shift, so their keys change — a
    # cache miss, never a wrong hit: the shifted key carries the object's
    # own generation, which the old occupant of that position never had
    shifted = stable_object_key(snapshot, snapshot[5])
    assert shifted == ("db", 5, 6)
    assert shifted != stable_object_key(database, database[5])


# --------------------------------------------------------------------- #
# the equivalence gate: mutated database == freshly built database,
# bit for bit, at every worker count
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_mutated_equals_fresh_at_every_worker_count(database, requests, workers):
    steps = _mutation_steps(np.random.default_rng(91))
    with QueryService(
        QueryEngine(database),
        ExecutorConfig(workers=workers, start_method=START_METHOD),
    ) as service:
        assert _snapshot(service.evaluate_many(requests)) == _fresh_snapshot(
            database, requests
        )
        for epoch, step in enumerate(steps, start=1):
            assert service.apply(step) == epoch
            current = service.engine.database
            assert current.epoch == epoch
            assert _snapshot(service.evaluate_many(requests)) == _fresh_snapshot(
                current, requests
            )
            assert service.last_batch_report.epoch == epoch


def test_engine_apply_mutations_matches_fresh_build(database, requests):
    engine = QueryEngine(database)
    engine.evaluate_many(requests)  # warm the caches at epoch 0
    for step in _mutation_steps(np.random.default_rng(92)):
        engine.apply_mutations(step)
        assert _snapshot(engine.evaluate_many(requests)) == _fresh_snapshot(
            engine.database, requests
        )


def test_rtree_engine_advances_incrementally(database, requests):
    engine = QueryEngine(database, rtree=RTree(database.mbrs()))
    engine.evaluate_many(requests)  # build + exercise the tree at epoch 0
    for step in _mutation_steps(np.random.default_rng(93)):
        engine.apply_mutations(step)
        # same engine, incrementally maintained tree vs a fresh bulk load
        rebuilt = UncertainDatabase(list(engine.database.objects))
        fresh = QueryEngine(rebuilt, rtree=RTree(rebuilt.mbrs()))
        assert _snapshot(engine.evaluate_many(requests)) == _snapshot(
            fresh.evaluate_many(requests)
        )


def test_rtree_service_matches_fresh_scan_across_mutations(database, requests):
    config = ExecutorConfig(workers=2, start_method=START_METHOD)
    engine = QueryEngine(database, rtree=RTree(database.mbrs()))
    with QueryService(engine, config) as service:
        service.evaluate_many(requests)
        for step in _mutation_steps(np.random.default_rng(95)):
            service.apply(step)
            # lanes advance their R-tree copies from the shipped deltas
            assert _snapshot(service.evaluate_many(requests)) == _fresh_snapshot(
                service.engine.database, requests
            )
        current = service.engine.database
    # a service over an R-tree bulk-loaded from the final content agrees too
    rebuilt = UncertainDatabase(list(current.objects))
    with QueryService(QueryEngine(rebuilt, rtree=RTree(rebuilt.mbrs())), config) as fresh:
        assert _snapshot(fresh.evaluate_many(requests)) == _fresh_snapshot(
            current, requests
        )


# --------------------------------------------------------------------- #
# incremental R-tree maintenance: parity with a fresh bulk load
# --------------------------------------------------------------------- #
def test_rtree_incremental_matches_bulk_load(database):
    rng = np.random.default_rng(7)
    mbrs = database.mbrs().copy()
    tree = RTree(mbrs, leaf_capacity=4, fanout=4)
    rows = [mbrs[i] for i in range(len(mbrs))]
    for round_index in range(3):
        new_row = np.stack(
            [rng.uniform(0.0, 0.9, size=2), rng.uniform(0.0, 0.9, size=2)], axis=1
        )
        new_row.sort(axis=1)
        rows.append(new_row.copy())
        assert tree.insert(new_row) == len(rows) - 1
        victim = int(rng.integers(0, len(rows) - 1))
        tree.delete(victim)
        del rows[victim]
        moved = int(rng.integers(0, len(rows)))
        shifted = rows[moved] + 0.05 * (round_index + 1)
        tree.update(moved, shifted)
        rows[moved] = shifted

        fresh = RTree(np.stack(rows), leaf_capacity=4, fanout=4)
        assert len(tree) == len(rows)
        window = Rectangle.from_bounds([0.1, 0.1], [0.7, 0.8])
        assert sorted(tree.range_query(window)) == sorted(fresh.range_query(window))
        query = Rectangle.from_center_extent([0.45, 0.5], 0.02)
        assert sorted(tree.knn_candidates(query, 4)) == sorted(
            fresh.knn_candidates(query, 4)
        )
        # structural invariant: every node MBR contains its children
        for node in tree.iter_nodes():
            children = (
                [child.mbr for child in node.children]
                if not node.is_leaf
                else [rows[i] for i in node.entries]
            )
            for child in children:
                assert np.all(node.mbr[:, 0] <= child[:, 0] + 1e-12)
                assert np.all(node.mbr[:, 1] >= child[:, 1] - 1e-12)


# --------------------------------------------------------------------- #
# mutation deltas: the worker transport
# --------------------------------------------------------------------- #
def test_mutation_delta_roundtrip(database):
    # the delta the service ships is a plain pickle of the resolved batch,
    # arrays included, whatever their size
    rng = np.random.default_rng(11)
    points = rng.uniform(0.0, 1.0, size=(64, 2))
    weights = np.full(64, 1.0 / 64)
    resolved = database.resolve_mutations(
        [Update(2, DiscreteObject(points, weights)), Insert(_box([0.6, 0.6]))]
    )
    shipped = []
    with _service(database, workers=1) as service:
        apply_delta = service._pool.apply_delta

        def recording_apply_delta(delta):
            shipped.append(delta)
            apply_delta(delta)

        service._pool.apply_delta = recording_apply_delta
        service.apply(resolved)
    (delta,) = shipped
    assert [field.name for field in dataclasses.fields(delta)] == [
        "base_epoch", "new_epoch", "shell"
    ]
    assert (delta.base_epoch, delta.new_epoch) == (0, 1)
    loaded = pickle.loads(delta.shell)
    assert database.apply(loaded).generations() == database.apply(
        resolved
    ).generations()
    rebuilt = loaded[0].obj
    np.testing.assert_array_equal(rebuilt.mbr.to_array(),
                                  resolved[0].obj.mbr.to_array())
    np.testing.assert_array_equal(rebuilt.points, points)


def test_workers_follow_epochs_and_respawn_at_the_current_snapshot(database, requests):
    from repro.testing.faults import kill_worker

    steps = _mutation_steps(np.random.default_rng(94))
    with _service(database, workers=2) as service:
        service.evaluate_many(requests)
        for step in steps:
            service.apply(step)
        probe = service.probe_workers()
        assert probe["epoch"] == len(steps)
        expected = _fresh_snapshot(service.engine.database, requests)
        assert _snapshot(service.evaluate_many(requests)) == expected
        # a respawned lane starts from the parent's current snapshot —
        # kill a worker and check nothing drifts
        victim = service.last_batch_report.worker_pids[0]
        kill_worker(victim)
        assert _snapshot(service.evaluate_many(requests)) == expected
        assert service.worker_respawns >= 1
        assert service.probe_workers()["epoch"] == len(steps)


def test_lane_killed_after_200_updates_restarts_on_the_current_snapshot(requests):
    from repro.testing.faults import kill_worker

    database = uniform_rectangle_database(num_objects=30, max_extent=0.05, seed=3)
    rng = np.random.default_rng(200)
    with _service(database, workers=1) as service:
        for step in range(200):
            position = int(rng.integers(0, len(database)))
            service.apply([Update(position, _box(rng.uniform(0.1, 0.9, size=2)))])
        kill_worker(service.probe_workers()["pid"])
        got = _snapshot(service.evaluate_many(requests))
        assert service.last_batch_report.worker_respawns == 1
        assert service.last_batch_report.epoch == 200
        expected = _fresh_snapshot(service.engine.database, requests)
    assert got == expected


# --------------------------------------------------------------------- #
# the service barrier: a batch admitted at epoch E sees snapshot E
# --------------------------------------------------------------------- #
def test_mutations_and_batches_sequence_through_one_queue(database, requests):
    step = [Update(4, _box([0.42, 0.58], label="moved"))]
    before = _fresh_snapshot(database, requests)
    after = _fresh_snapshot(database.apply(step), requests)
    with _service(database, workers=2) as service:
        first = service.submit(requests)
        ticket = service.submit_mutations(step)
        second = service.submit(requests)
        # FIFO dispatch: the pre-mutation batch sees epoch 0, the ticket
        # resolves to epoch 1, the post-mutation batch sees epoch 1
        assert _snapshot(first.result(timeout=120)) == before
        assert first.report().epoch == 0
        assert ticket.result(timeout=120) == 1
        assert ticket.done() and ticket.exception() is None
        assert _snapshot(second.result(timeout=120)) == after
        assert second.report().epoch == 1
        assert service.epoch == 1


def test_apply_surfaces_validation_errors_and_service_survives(database, requests):
    with _service(database, workers=1) as service:
        with pytest.raises(IndexError):
            service.apply([Delete(len(database))])
        # the failed batch left no trace: epoch unchanged, queries still run
        assert service.epoch == 0
        assert _snapshot(service.evaluate_many(requests)) == _fresh_snapshot(
            database, requests
        )


# --------------------------------------------------------------------- #
# warm caches: untouched columns survive a small mutation, never stale
# --------------------------------------------------------------------- #
def _key_tokens(key) -> set:
    """Tree tokens a memo key names: candidate, target and reference."""
    (candidate, _depth), (target, _), (reference, _), _config = key
    return {candidate, target, reference}


def test_context_advance_drops_only_the_replaced_objects_state(database):
    engine = QueryEngine(database)
    context = engine.context
    replaced = database[3]
    # columns with the replaced object as target, and columns without it
    engine.domination_count(3, 9, max_iterations=3)
    engine.domination_count(4, 9, max_iterations=3)
    dead = context.tree_cache[id(replaced)].token
    columns = dict(context.pair_bounds_cache)
    trees = dict(context.tree_cache)
    naming = {key for key in columns if dead in _key_tokens(key)}
    assert naming and len(naming) < len(columns)

    snapshot = database.apply([Update(3, _box([0.5, 0.5]))])
    context.advance(snapshot, [replaced])

    # no column names the replaced tree; every other column is the same array
    assert set(context.pair_bounds_cache) == set(columns) - naming
    for key in context.pair_bounds_cache:
        assert dict.__getitem__(context.pair_bounds_cache, key) is columns[key]
    # the replaced tree is gone, every other tree stays
    assert id(replaced) not in context.tree_cache
    assert context.tree_cache == {
        key: tree for key, tree in trees.items() if key != id(replaced)
    }
    # the context and its handed-out IDCA instances serve the new snapshot
    assert context.database is snapshot
    assert all(idca.database is snapshot for idca in context._idca_instances.values())


def test_lane_memos_stay_warm_across_small_mutations(database):
    rng = np.random.default_rng(23)
    # index queries resolve to the same object in a lane on every batch, and
    # affine dispatch keeps each on one lane: a hit after a mutation is a
    # column that survived RefinementContext.advance
    batch = [
        KNNQuery(position, k=3, tau=0.5, max_iterations=4)
        for position in range(0, len(database), 3)
    ]
    with _service(database, workers=4) as service:
        service.evaluate_many(batch)  # warm the epoch-0 columns
        assert service.last_batch_report.pair_bounds_misses > 0
        for _ in range(3):
            # mutate <= 10% of the objects (3 of 30), updates only so the
            # positions of the untouched objects stay put
            step = [
                Update(int(position), _box(rng.uniform(0.1, 0.9, size=2)))
                for position in rng.choice(len(database), size=3, replace=False)
            ]
            service.apply(step)
            results = service.evaluate_many(batch)
            report = service.last_batch_report
            # zero stale hits: bit-identity with a fresh build is only possible
            # if no column computed against the old snapshot was served
            assert _snapshot(results) == _fresh_snapshot(
                service.engine.database, batch
            )
            assert report.pair_bounds_hits > 0, str(report)


# --------------------------------------------------------------------- #
# gateway: /v1/mutate behind the barrier, query answers follow exactly
# --------------------------------------------------------------------- #
def _http(method, url, document=None):
    data = None if document is None else json.dumps(document).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}, method=method
    )
    with urllib.request.urlopen(request) as response:
        return response.status, response.read()


def _query_payload(server, document) -> bytes:
    """Raw result bytes of a one-shot /v1/query evaluation."""
    status, body = _http("POST", f"{server.url}/v1/query", document)
    assert status == 200, body
    assert body.startswith(b'{"result":') and body.endswith(b"}")
    return body[len(b'{"result":'):-1]


def _fresh_payload(database, document) -> bytes:
    """Canonical result bytes of ``document`` on a serial engine over a
    freshly constructed copy of ``database``."""
    from repro.gateway import canonical_json, decode_query, encode_result

    rebuilt = UncertainDatabase(list(database.objects))
    (result,) = QueryEngine(rebuilt).evaluate_many([decode_query(document, rebuilt)])
    return canonical_json(encode_result(result))


def test_gateway_query_answers_follow_mutations_exactly(database):
    from repro.gateway import GatewayServer

    region = {"box": {"lower": [0.4, 0.4], "upper": [0.45, 0.45]}}
    documents = [
        {"type": "knn", "query": region, "k": 3, "tau": 0.5, "max_iterations": 4},
        {"type": "range", "query": region, "epsilon": 0.05, "tau": 0.3,
         "max_depth": 3},
        {"type": "ranking", "query": region, "max_iterations": 2,
         "candidate_indices": list(range(12))},
    ]
    # updates, then an insert, then a delete — each near the query region
    batches = [
        [{"op": "update", "position": 3,
          "object": {"box": {"lower": [0.41, 0.41], "upper": [0.44, 0.44]}}},
         {"op": "update", "position": 7,
          "object": {"box": {"lower": [0.46, 0.40], "upper": [0.48, 0.43]}}}],
        [{"op": "insert",
          "object": {"gaussian": {"mean": [0.43, 0.42], "std": [0.004, 0.004]}}}],
        [{"op": "delete", "position": 3}],
    ]
    with _service(database, workers=2) as service:
        with GatewayServer(service) as server:
            before = [_query_payload(server, doc) for doc in documents]
            size = len(database)
            for epoch, mutations in enumerate(batches, start=1):
                status, body = _http(
                    "POST", f"{server.url}/v1/mutate", {"mutations": mutations}
                )
                assert status == 200, body
                size += sum(
                    {"insert": 1, "delete": -1}.get(op["op"], 0) for op in mutations
                )
                assert json.loads(body) == {
                    "applied": len(mutations), "epoch": epoch, "size": size,
                }
                mutated = service.engine.database
                assert mutated.epoch == epoch and len(mutated) == size
                answers = [_query_payload(server, doc) for doc in documents]
                assert answers == [_fresh_payload(mutated, doc) for doc in documents]
                if epoch == 1:
                    # the updates moved objects into the region: answers moved
                    assert answers != before


def test_gateway_update_keeps_the_literal_label(database):
    from repro.gateway import GatewayServer

    mutations = [{"op": "update", "position": 4,
                  "object": {"gaussian": {"mean": [0.4, 0.4], "std": [0.01, 0.01]},
                             "label": "iceberg-377"}}]
    with _service(database, workers=1) as service:
        with GatewayServer(service) as server:
            status, body = _http(
                "POST", f"{server.url}/v1/mutate", {"mutations": mutations}
            )
            assert status == 200, body
            assert service.engine.database[4].label == "iceberg-377"


def test_gateway_rejects_malformed_mutations(database):
    from repro.gateway import GatewayServer

    bad_batches = [
        [],  # empty
        [{"op": "teleport", "position": 0}],  # unknown op
        [{"op": "update", "position": len(database),  # out of range
          "object": {"box": {"lower": [0.1, 0.1], "upper": [0.2, 0.2]}}}],
        [{"op": "update", "position": 0, "object": 3}],  # position as content
        [{"op": "delete", "position": 0, "extra": True}],  # unknown field
    ]
    with _service(database, workers=1) as service:
        with GatewayServer(service) as server:
            for mutations in bad_batches:
                try:
                    status, body = _http(
                        "POST", f"{server.url}/v1/mutate", {"mutations": mutations}
                    )
                except urllib.error.HTTPError as error:
                    status, body = error.code, error.read()
                assert status == 400, (mutations, body)
            # nothing was applied along the way
            assert service.epoch == 0


def test_decode_mutations_tracks_sequential_positions(database):
    from repro.gateway import CodecError, decode_mutations

    literal = {"box": {"lower": [0.1, 0.1], "upper": [0.2, 0.2]}}
    # after an insert the appended position becomes addressable...
    decoded = decode_mutations(
        [{"op": "insert", "object": literal},
         {"op": "update", "position": len(database), "object": literal}],
        database,
    )
    assert isinstance(decoded[0], Insert) and isinstance(decoded[1], Update)
    # ...and after a delete the shrunken length is enforced
    with pytest.raises(CodecError, match="out of range"):
        decode_mutations(
            [{"op": "delete", "position": 0},
             {"op": "update", "position": len(database) - 1, "object": literal}],
            database,
        )
    with pytest.raises(CodecError, match="last remaining"):
        decode_mutations(
            [{"op": "delete", "position": 0}],
            UncertainDatabase([_box([0.5, 0.5])]),
        )

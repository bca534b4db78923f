"""Parallel batch execution: determinism, partitioning, and reporting.

The contract under test (``repro/engine/executor.py``): for any worker
count, ``QueryEngine.evaluate_many`` and a ``QueryService`` return results
bit-identical to the serial shared-cache path — which is itself pinned to
the seed behaviour by ``tests/test_engine_equivalence.py``.  The
heterogeneous batch here mirrors the seeded equivalence scenarios, so a
pass chains all the way back to the pre-engine implementations.

Also covered: the stable cross-process keys of ``engine/boundstore.py``,
worker-affine dispatch (stable lanes across batches), ``evaluate_many``
accepting only ``None`` or a ``QueryService`` as its executor, and a
service creating no shared-memory block and reporting the bench-read
``shared_*`` counters as 0.

``REPRO_TEST_START_METHOD`` picks the pool start method.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle

import numpy as np
import pytest

from repro.datasets import random_reference_object, uniform_rectangle_database
from repro.engine import (
    BatchReport,
    CacheStats,
    ExecutorConfig,
    InverseRankingQuery,
    KNNQuery,
    QueryEngine,
    QueryService,
    RangeQuery,
    RankingQuery,
    RefinementContext,
    RefinementScheduler,
    RKNNQuery,
    WorkerPool,
    affine_partition,
    affinity_lane,
)
from repro.engine.boundstore import encode_stable_key, stable_object_key

# The CI jobs matrix this file over start methods through this variable;
# locally it is unset and the platform default applies.
START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or None


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
        KNNQuery(reference, k=3, tau=0.5, max_iterations=4),  # a repeat
    ]


def _snapshot(results) -> list:
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


@pytest.fixture(scope="module")
def serial_snapshot(database, requests):
    engine = QueryEngine(database)
    return _snapshot(engine.evaluate_many(requests))


# --------------------------------------------------------------------- #
# determinism across worker counts and both process paths
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("path", ["engine", "service"])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_results_and_report_identical_across_worker_counts(
    database, requests, serial_snapshot, path, workers
):
    config = ExecutorConfig(workers=workers, start_method=START_METHOD)
    before = set(multiprocessing.active_children())
    engine = QueryEngine(database)
    with QueryService(engine, config) as service:
        if path == "engine":
            got = _snapshot(engine.evaluate_many(requests, executor=service))
            report = engine.last_batch_report
        else:
            got = _snapshot(service.evaluate_many(requests))
            report = service.last_batch_report
    # closing the service reaped its workers
    assert not (set(multiprocessing.active_children()) - before)
    assert got == serial_snapshot
    # a service always runs its lanes, even a single one
    assert report.mode == "process"
    # one chunk per lane the batch's affinity keys hash to
    _chunks, lanes = affine_partition(requests, workers)
    assert report.num_chunks == len(lanes)
    assert report.completed_requests == report.num_requests == len(requests)
    assert report.kinds == {
        "knn": 3, "rknn": 1, "range": 1, "ranking": 1, "inverse_ranking": 1
    }
    assert report.scheduler_steps > 0
    assert 1 <= len(report.worker_pids) <= workers
    assert report.busiest_chunk_seconds <= report.elapsed_seconds
    summary = report.to_dict()
    assert summary["num_requests"] == len(requests)
    assert sum(summary["chunk_sizes"]) == len(requests)


def test_serial_engine_repeats_batches_identically(database, requests, serial_snapshot):
    # later batches are served from the warm shared context: same results
    engine = QueryEngine(database)
    for _ in range(3):
        assert _snapshot(engine.evaluate_many(requests)) == serial_snapshot


def test_auto_mode_resolution_table(monkeypatch):
    # the default derives workers from the CPU count at resolution time, so
    # one config scales out on multi-core machines ...
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert ExecutorConfig().effective_workers == 8
    # ... and still means serial where there is only one core to scale to
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert ExecutorConfig().effective_workers == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # cpu_count may fail
    assert ExecutorConfig().effective_workers == 1
    assert ExecutorConfig(workers=3).effective_workers == 3


def test_config_validation():
    with pytest.raises(ValueError, match="workers"):
        ExecutorConfig(workers=0)
    with pytest.raises(ValueError, match="workers"):
        ExecutorConfig(workers=-2)
    with pytest.raises(ValueError, match="workers"):
        ExecutorConfig(workers=2.5)
    with pytest.raises(ValueError, match="workers"):
        ExecutorConfig(workers=True)
    # removed in 2.0.0 (shared_bounds) and 3.0.0 (the rest)
    for removed in ("shared_bounds", "mode", "chunk_size", "chunking", "kernel_backend"):
        with pytest.raises(TypeError):
            ExecutorConfig(**{removed: None})
    # the accepted surface
    assert [f.name for f in dataclasses.fields(ExecutorConfig)] == [
        "workers", "start_method"
    ]
    ExecutorConfig(workers=1, start_method=None)


def test_evaluate_many_rejects_unknown_executors(database, requests):
    with pytest.raises(TypeError, match="executor"):
        QueryEngine(database).evaluate_many(requests, executor="process")


@pytest.mark.parametrize("workers", [1, 2])
def test_executor_config_is_rejected_naming_query_service(database, requests, workers):
    # evaluate_many runs serially or on a caller's service; a bare config
    # no longer builds a short-lived one
    before = set(multiprocessing.active_children())
    engine = QueryEngine(database)
    with pytest.raises(TypeError, match="QueryService"):
        engine.evaluate_many(requests, executor=ExecutorConfig(workers=workers))
    assert engine.last_batch_report is None
    assert not (set(multiprocessing.active_children()) - before)


# --------------------------------------------------------------------- #
# partitioning
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_affinity_groups_shared_queries(requests, workers):
    chunks, _lanes = affine_partition(requests, workers)
    by_request = {index: chunk_id for chunk_id, chunk in enumerate(chunks) for index in chunk}
    # requests 0 and 6 are the same KNNQuery object-spec: same chunk
    assert by_request[0] == by_request[6]


def test_partition_empty_batch(database):
    for workers in (1, 2, 3, 4):
        assert affine_partition([], workers) == ([], [])
    # an empty batch runs on either path
    engine = QueryEngine(database)
    assert engine.evaluate_many([]) == []
    assert engine.last_batch_report.mode == "serial"
    assert engine.last_batch_report.num_requests == 0
    config = ExecutorConfig(workers=2, start_method=START_METHOD)
    with QueryService(engine, config) as service:
        assert service.evaluate_many([]) == []
        report = service.last_batch_report
        assert report.num_requests == report.num_chunks == 0


# --------------------------------------------------------------------- #
# worker-shippable state
# --------------------------------------------------------------------- #
def test_context_pickles_to_empty_caches(database):
    context = RefinementContext(database)
    context.tree_for(database[0])
    context.pair_bounds_cache[("some", "key")] = (1, 2)
    clone = pickle.loads(pickle.dumps(context))
    assert clone.axis_policy == context.axis_policy
    assert len(clone.tree_cache) == 0
    assert len(clone.pair_bounds_cache) == 0
    assert clone.pair_bounds_cache.hits == 0


def test_scheduler_pickles_to_configuration_only():
    scheduler = RefinementScheduler(global_iteration_budget=7)
    scheduler.steps_taken = 99
    clone = pickle.loads(pickle.dumps(scheduler))
    assert clone.global_iteration_budget == 7
    assert clone.steps_taken == 0


# --------------------------------------------------------------------- #
# batch report
# --------------------------------------------------------------------- #
def test_serial_report_accounting(database, requests):
    engine = QueryEngine(database)
    engine.evaluate_many(requests)
    report = engine.last_batch_report
    assert isinstance(report, BatchReport)
    assert report.mode == "serial"
    assert report.num_requests == len(requests)
    assert report.num_chunks == 1
    assert report.kinds["knn"] == 3
    assert report.scheduler_steps > 0
    assert report.pair_bounds_misses > 0
    assert report.elapsed_seconds > 0
    summary = report.to_dict()
    for removed in ("pool", "chunking", "chunk_size"):  # removed in 3.0.0
        assert removed not in summary
        assert not hasattr(report, removed)
    # the warm-start counters, removed in 8.0.0; shared_hits stays, always 0
    for removed in ("shared_misses", "shared_publishes", "shared_hit_rate"):
        assert removed not in summary
        assert not hasattr(report, removed)
    assert "shared_hits" not in summary
    assert report.shared_hits == 0
    assert "shared" not in str(report)


def test_process_report_merges_worker_chunks(database, requests):
    engine = QueryEngine(database)
    config = ExecutorConfig(workers=2, start_method=START_METHOD)
    with QueryService(engine, config) as service:
        engine.evaluate_many(requests, executor=service)
    report = engine.last_batch_report
    assert report.mode == "process"
    # one ChunkStats per affine chunk, in chunk order, sized like the chunk
    chunks, _lanes = affine_partition(requests, 2)
    assert [stats.chunk for stats in report.chunks] == list(range(len(chunks)))
    assert [stats.size for stats in report.chunks] == [len(c) for c in chunks]
    # the batch totals are the sums of the chunks' counters
    assert report.scheduler_steps == sum(s.scheduler_steps for s in report.chunks)
    assert report.pair_bounds_misses == sum(
        s.pair_bounds_misses for s in report.chunks
    )
    merged: dict[str, int] = {}
    for stats in report.chunks:
        for kind, count in stats.kinds.items():
            merged[kind] = merged.get(kind, 0) + count
    assert report.kinds == merged
    assert set(report.worker_pids) == {s.pid for s in report.chunks}
    assert os.getpid() not in report.worker_pids
    assert report.busiest_chunk_seconds == max(s.seconds for s in report.chunks)


# --------------------------------------------------------------------- #
# adapter engine pass-through
# --------------------------------------------------------------------- #
def test_adapters_accept_shared_engine(database, reference, serial_snapshot):
    from repro.queries import probabilistic_knn_threshold

    engine = QueryEngine(database)
    result = probabilistic_knn_threshold(
        database, reference, k=3, tau=0.5, max_iterations=4, engine=engine
    )
    assert _snapshot([result]) == [serial_snapshot[0]]
    assert engine.context.stats()["trees"] > 0  # the shared context did the work


def test_adapters_reject_foreign_engine(database, reference):
    from repro.queries import probabilistic_knn_threshold

    other = uniform_rectangle_database(num_objects=5, max_extent=0.05, seed=9)
    engine = QueryEngine(other)
    with pytest.raises(ValueError):
        probabilistic_knn_threshold(
            database, reference, k=3, tau=0.5, engine=engine
        )


def test_adapters_reject_mismatched_configuration(database, reference):
    from repro.index import RTree
    from repro.queries import probabilistic_knn_threshold, probabilistic_range_query

    engine = QueryEngine(database)  # p=2.0, criterion="optimal"
    with pytest.raises(ValueError, match="p="):
        probabilistic_knn_threshold(
            database, reference, k=3, tau=0.5, p=1.0, engine=engine
        )
    with pytest.raises(ValueError, match="criterion"):
        probabilistic_knn_threshold(
            database, reference, k=3, tau=0.5, criterion="minmax", engine=engine
        )
    with pytest.raises(ValueError, match="rtree"):
        probabilistic_knn_threshold(
            database, reference, k=3, tau=0.5,
            rtree=RTree(database.mbrs()), engine=engine,
        )
    with pytest.raises(ValueError, match="p="):
        probabilistic_range_query(
            database, reference, epsilon=0.3, tau=0.5, p=3.0, engine=engine
        )


def test_adapters_inherit_configuration_from_engine(database, reference):
    from repro.queries import probabilistic_knn_threshold

    # defaulted p/criterion must not be mistaken for explicit requests: a
    # non-default engine is usable without repeating its configuration
    engine = QueryEngine(database, p=1.0, criterion="minmax")
    via_engine = probabilistic_knn_threshold(
        database, reference, k=2, tau=0.5, max_iterations=3, engine=engine
    )
    direct = probabilistic_knn_threshold(
        database, reference, k=2, tau=0.5, max_iterations=3,
        p=1.0, criterion="minmax",
    )
    assert via_engine.result_indices() == direct.result_indices()
    # explicitly repeating the engine's own configuration is also fine
    repeated = probabilistic_knn_threshold(
        database, reference, k=2, tau=0.5, max_iterations=3,
        p=1.0, criterion="minmax", engine=engine,
    )
    assert repeated.result_indices() == direct.result_indices()


# --------------------------------------------------------------------- #
# error paths
# --------------------------------------------------------------------- #
def test_partitioning_error_raises_in_the_caller(database, requests, serial_snapshot):
    engine = QueryEngine(database)
    config = ExecutorConfig(workers=2, start_method=START_METHOD)
    broken = object()  # no affinity_key(): partitioning fails in the parent
    with QueryService(engine, config) as service:
        with pytest.raises(AttributeError):
            engine.evaluate_many([requests[0], broken], executor=service)
        # nothing was enqueued, and the service still serves
        assert service.pending_batches == 0
        assert _snapshot(service.evaluate_many(requests)) == serial_snapshot


# --------------------------------------------------------------------- #
# stable cross-process keys
# --------------------------------------------------------------------- #
def test_database_members_key_by_position_and_generation(database):
    assert stable_object_key(database, database[7]) == ("db", 7, 7)
    assert stable_object_key(database, database[0]) == ("db", 0, 0)


def test_ad_hoc_objects_key_by_content_digest(database, reference):
    kind, digest = stable_object_key(database, reference)
    assert kind == "pickle"
    # the worker-side unpickled copy digests to the same value, so parent
    # and workers derive the same key for the same object; digesting must
    # not mutate the object (that would change its pickle and break the
    # cross-process agreement)
    copy = pickle.loads(pickle.dumps(reference))
    assert "_repro_content_digest" not in vars(copy)
    assert stable_object_key(database, copy) == (kind, digest)
    # memoised: repeated calls agree without re-pickling
    assert stable_object_key(database, reference) == (kind, digest)


def test_encoded_keys_are_deterministic_and_distinct():
    a = encode_stable_key(("pb1", "round_robin", (("db", 3), 2), (2.0, "optimal")))
    b = encode_stable_key(("pb1", "round_robin", (("db", 3), 2), (2.0, "optimal")))
    c = encode_stable_key(("pb1", "round_robin", (("db", 4), 2), (2.0, "optimal")))
    assert a == b and a != c


@pytest.mark.parametrize(
    "key, other",
    [
        (("db", 3, 3), ("db", 3, 30)),  # same position, another generation
        (("pickle", "ab"), ("db", "ab")),  # content digest vs member
        ((1, 2.0), (1.0, 2)),  # ints and floats stay apart
        (((1, 2), 3), (1, (2, 3))),  # nesting is part of the key
    ],
    ids=["generation", "kind", "number-type", "nesting"],
)
def test_encoding_is_equal_exactly_for_equal_keys(key, other):
    assert encode_stable_key(key) == encode_stable_key(tuple(key))
    assert encode_stable_key(key) != encode_stable_key(other)
    assert isinstance(encode_stable_key(key), bytes)


def _ad_hoc(kind: str):
    from repro.geometry import Rectangle
    from repro.uncertain import (
        BoxUniformObject,
        DiscreteObject,
        HistogramObject,
        MixtureObject,
        PointObject,
        TruncatedGaussianObject,
    )

    return {
        "box": lambda: BoxUniformObject(
            Rectangle.from_center_extent(np.array([0.5, 0.5]), 0.1), label=kind
        ),
        "discrete": lambda: DiscreteObject(
            np.array([[0.1, 0.2], [0.3, 0.4]]), weights=[0.25, 0.75], label=kind
        ),
        "gaussian": lambda: TruncatedGaussianObject([0.5, 0.5], 0.05, label=kind),
        "histogram": lambda: HistogramObject(
            [[0.0, 0.5, 1.0], [0.0, 1.0]], [[0.3, 0.7], [1.0]], label=kind
        ),
        "mixture": lambda: MixtureObject(
            [PointObject([0.2, 0.2]), PointObject([0.8, 0.8])], [0.5, 0.5], label=kind
        ),
    }[kind]()


@pytest.mark.parametrize("kind", ["box", "discrete", "gaussian", "histogram", "mixture"])
def test_every_object_type_keys_by_a_digest_its_copies_share(database, kind):
    obj = _ad_hoc(kind)
    before = pickle.dumps(obj, protocol=4)
    key = stable_object_key(database, obj)
    assert key[0] == "pickle" and len(key[1]) == 32
    int(key[1], 16)  # a hex digest
    # keying leaves the pickle untouched, so a copy made afterwards agrees
    assert pickle.dumps(obj, protocol=4) == before
    assert stable_object_key(database, pickle.loads(before)) == key
    assert stable_object_key(database, _ad_hoc(kind)) == key


def test_objects_differing_only_by_label_key_differently(database, reference):
    relabelled = pickle.loads(pickle.dumps(reference))
    relabelled.label = "another"
    assert stable_object_key(database, relabelled) != stable_object_key(
        database, reference
    )


def test_a_copy_of_a_member_is_not_a_member(database):
    # membership is by identity: an unpickled copy keys by its content
    copy = pickle.loads(pickle.dumps(database[7]))
    assert stable_object_key(database, copy)[0] == "pickle"
    assert stable_object_key(database, database[7]) == ("db", 7, 7)


def test_a_digest_is_computed_once_per_object(database, monkeypatch):
    import hashlib

    calls = []
    real = hashlib.blake2b

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hashlib, "blake2b", counting)
    obj = _ad_hoc("box")
    first = stable_object_key(database, obj)
    assert stable_object_key(database, obj) == first
    assert len(calls) == 1
    # members never digest
    stable_object_key(database, database[3])
    assert len(calls) == 1


def test_digests_of_collected_objects_are_dropped(database):
    import gc

    from repro.engine import boundstore

    obj = _ad_hoc("discrete")
    stable_object_key(database, obj)
    assert obj in boundstore._DIGESTS
    held = len(boundstore._DIGESTS)
    del obj
    gc.collect()
    assert len(boundstore._DIGESTS) == held - 1


def _identities(database, objects) -> list:
    return [stable_object_key(database, obj) for obj in objects]


def test_stable_keys_agree_in_a_fresh_interpreter():
    database = uniform_rectangle_database(num_objects=20, max_extent=0.05, seed=4)
    objects = [database[0], database[7]] + [
        random_reference_object(extent=0.05, seed=8 + i, label=f"ad-hoc-{i}")
        for i in range(2)
    ]
    # spawn, not fork: a fresh interpreter with its own hash seed, holding
    # unpickled copies of the database and the ad-hoc objects
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        remote = pool.apply(_identities, (database, objects))
    assert remote == _identities(database, objects)
    assert [key[0] for key in remote] == ["db", "db", "pickle", "pickle"]


# --------------------------------------------------------------------- #
# worker-affine dispatch
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_affine_partition_covers_each_request_once(requests, workers):
    chunks, lanes = affine_partition(requests, workers=workers)
    assert len(chunks) == len(lanes)
    covered = sorted(index for chunk in chunks for index in chunk)
    assert covered == list(range(len(requests)))
    assert all(0 <= lane < workers for lane in lanes)
    # one chunk per lane, in lane order, indices ascending within a chunk
    assert lanes == sorted(set(lanes))
    assert all(chunk == sorted(chunk) for chunk in chunks)


def test_affine_lanes_are_stable_across_batches(requests):
    first = affine_partition(requests, workers=4)
    second = affine_partition(list(requests), workers=4)
    assert first == second
    # a shuffled follow-up batch still routes each request to the same lane
    reordered = list(reversed(requests))
    chunks, lanes = affine_partition(reordered, workers=4)
    lane_of = {}
    for chunk, lane in zip(chunks, lanes):
        for index in chunk:
            lane_of[id(reordered[index])] = lane
    for chunk, lane in zip(*first):
        for index in chunk:
            assert lane_of[id(requests[index])] == lane


def test_affinity_lane_matches_partition(requests):
    chunks, lanes = affine_partition(requests, workers=4)
    for chunk, lane in zip(chunks, lanes):
        for index in chunk:
            assert affinity_lane(requests[index].affinity_key(), 4) == lane


def test_affine_partition_validates_arguments(requests):
    with pytest.raises(ValueError):
        affine_partition(requests, workers=0)
    assert affine_partition([], workers=2) == ([], [])


def test_worker_pool_pins_chunks_to_lanes(database, requests):
    engine = QueryEngine(database)
    with WorkerPool(engine, workers=2) as pool:
        pid_of_lane: dict[int, set] = {0: set(), 1: set()}
        for _round in range(2):
            futures = [
                pool.submit_chunk(lane, [requests[lane]], lane=lane) for lane in (0, 1)
            ]
            for lane, future in zip((0, 1), futures):
                _, _, stats = future.result()
                pid_of_lane[lane].add(stats.pid)
        assert len(pid_of_lane[0]) == 1  # same worker served the lane twice
        assert len(pid_of_lane[1]) == 1
        assert pid_of_lane[0] != pid_of_lane[1]


def test_run_chunks_wraps_out_of_range_lanes(database, requests, serial_snapshot):
    # lanes computed for a larger pool fold onto this one modulo its size
    engine = QueryEngine(database)
    with WorkerPool(engine, workers=2, start_method=START_METHOD) as pool:
        results, stats, faults = pool.run_chunks(
            requests, [[0, 1], [2], [3, 4, 5, 6]], lanes=[0, 3, 2]
        )
        assert _snapshot(results) == serial_snapshot
        assert [s.chunk for s in stats] == [0, 1, 2]
        assert [s.size for s in stats] == [2, 1, 4]
        pid = {lane: pool.probe(lane)["pid"] for lane in (0, 1)}
        assert [s.pid for s in stats] == [pid[0], pid[1], pid[0]]
        assert faults == {"worker_respawns": 0, "chunk_retries": 0}


def test_affine_dispatch_keeps_index_queries_on_warm_caches(database):
    """Database-index requests pin to one lane and hit worker-local caches.

    Unlike ad-hoc query objects (whose identity changes with every pickled
    copy), an index request resolves to the same object in the worker on
    every batch — so with affine dispatch batch 2 must be served entirely
    from the worker's local memo, never recomputed.
    """
    batch = [KNNQuery(7, k=3, tau=0.5, max_iterations=4)]
    with QueryService(
        QueryEngine(database), ExecutorConfig(workers=2, start_method=START_METHOD)
    ) as service:
        first = _snapshot(service.evaluate_many(batch))
        report_one = service.last_batch_report
        assert report_one.pair_bounds_misses > 0
        second = _snapshot(service.evaluate_many(batch))
        report_two = service.last_batch_report
        assert second == first
        assert report_two.pair_bounds_misses == 0
        assert report_two.pair_bounds_hits > 0
        assert report_two.worker_pids == report_one.worker_pids


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_repeated_batches_identical_on_one_service(
    database, requests, serial_snapshot, workers
):
    with QueryService(
        QueryEngine(database), ExecutorConfig(workers=workers, start_method=START_METHOD)
    ) as service:
        for _ in range(3):
            assert _snapshot(service.evaluate_many(requests)) == serial_snapshot


# --------------------------------------------------------------------- #
# lane-local memos: no shared memory, the bench-read counters stay 0
# --------------------------------------------------------------------- #
#: ``ChunkStats`` fields kept, always 0, because the bench harness sums them.
_ALWAYS_ZERO = (
    "shared_hits",
    "shared_misses",
    "shared_publishes",
    "shared_rejected",
    "shared_duplicates",
    "claim_waits",
)


def test_service_adds_no_block_and_reports_no_shared_counts(
    database, requests, monkeypatch, span_lanes
):
    from multiprocessing import shared_memory

    import repro.uncertain.sharedmem as sharedmem_module

    # the counting constructor sees every block this process makes
    created = []

    class CountingSharedMemory(shared_memory.SharedMemory):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if kwargs.get("create"):
                created.append(self.name)

    monkeypatch.setattr(
        sharedmem_module._shared_memory, "SharedMemory", CountingSharedMemory
    )
    # a fresh copy of the fixture database, so its export happens under the patch
    database = uniform_rectangle_database(num_objects=30, max_extent=0.05, seed=3)
    # work on both lanes
    batch = span_lanes(requests, 2, len(database))
    serial = _snapshot(QueryEngine(database).evaluate_many(batch))
    config = ExecutorConfig(workers=2, start_method=START_METHOD)
    with QueryService(QueryEngine(database), config) as service:
        assert type(service.engine.context.pair_bounds_cache) is CacheStats
        for _ in range(2):
            assert _snapshot(service.evaluate_many(batch)) == serial
            report = service.last_batch_report
            assert report.shared_hits == 0
            for stats in report.chunks:
                assert [getattr(stats, name) for name in _ALWAYS_ZERO] == [0] * 6
        assert report.pair_bounds_hits > 0
        assert len(report.worker_pids) == 2
    assert created == []  # lanes start from the engine, not from a block


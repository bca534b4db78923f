"""QueryService lifecycle: pool reuse, determinism, queue, shutdown, leaks.

The contract under test (``repro/engine/service.py``): one worker pool —
started at construction — serves every batch of the service's lifetime
(observable through stable worker pids), results stay bit-identical to the
serial path at every worker count, every lane starts from the engine
itself (inherited under ``fork``, a small file handle under ``spawn``),
and shutdown is idempotent, drains the queue and reaps every worker
process even after a poisoned batch.

``REPRO_TEST_START_METHOD`` picks the pool start method of the lifecycle
tests; the start-path tests name theirs.
"""

from __future__ import annotations

import inspect
import multiprocessing
import os
import pickle
import threading
import time

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
    WorkerPool,
)

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


def _service(database, workers=2, start_method=START_METHOD, **kwargs):
    return QueryService(
        QueryEngine(database),
        ExecutorConfig(workers=workers, start_method=start_method),
        **kwargs,
    )


# --------------------------------------------------------------------- #
# the acceptance property: one pool for the whole service lifetime
# --------------------------------------------------------------------- #
def test_pool_is_reused_across_consecutive_batches(database, requests, serial_snapshot):
    with _service(database, workers=2) as service:
        pid_sets = []
        for _ in range(3):
            got = _snapshot(service.evaluate_many(requests))
            assert got == serial_snapshot
            pid_sets.append(set(service.last_batch_report.worker_pids))
            assert service.last_batch_report.mode == "process"
        # every batch ran on the same pool: across three batches the union of
        # observed pids stays within one pool's worth of workers (a pool per
        # batch would surface fresh pids every time)
        all_pids = set().union(*pid_sets)
        assert 1 <= len(all_pids) <= 2
        assert service.worker_pids == tuple(sorted(all_pids))


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_results_identical_across_worker_counts(
    database, requests, serial_snapshot, workers
):
    with _service(database, workers=workers) as service:
        got = _snapshot(service.evaluate_many(requests))
        assert got == serial_snapshot
        assert len(service.worker_pids) <= workers


def test_engine_evaluate_many_routes_through_service(
    database, requests, serial_snapshot
):
    engine = QueryEngine(database)
    with _service(database, workers=2) as service:
        got = _snapshot(engine.evaluate_many(requests, executor=service))
        assert got == serial_snapshot
        assert engine.last_batch_report.mode == "process"
        # the batch ran on the service's own lanes
        assert set(engine.last_batch_report.worker_pids) <= set(service.worker_pids)


def test_engine_evaluate_many_leaves_callers_service_open(
    database, requests, serial_snapshot
):
    # a caller's service keeps its lanes for the next batch
    engine = QueryEngine(database)
    with _service(database, workers=2) as service:
        pids = []
        for _ in range(2):
            got = _snapshot(engine.evaluate_many(requests, executor=service))
            assert got == serial_snapshot
            assert not service.closed
            pids.append(service.worker_pids)
        # the second batch ran on the same, still-running workers
        assert pids[0] and pids[1] == pids[0]
        assert _snapshot(service.evaluate_many(requests)) == serial_snapshot


def test_engine_routing_rejects_foreign_service(database, requests):
    other = uniform_rectangle_database(num_objects=5, max_extent=0.05, seed=9)
    engine = QueryEngine(other)
    with _service(database, workers=1) as service:
        with pytest.raises(ValueError, match="different database"):
            engine.evaluate_many(requests, executor=service)


def test_adapters_accept_service(database, reference, serial_snapshot):
    from repro.queries import probabilistic_knn_threshold

    with _service(database, workers=1) as service:
        result = probabilistic_knn_threshold(
            database, reference, k=3, tau=0.5, max_iterations=4, engine=service
        )
        assert _snapshot([result]) == [serial_snapshot[0]]
        # single queries run in-process on the service's shared context
        assert service.engine.context.stats()["trees"] > 0


# --------------------------------------------------------------------- #
# request queue: futures and concurrent submitters
# --------------------------------------------------------------------- #
def test_submit_returns_future_handle(database, requests, serial_snapshot):
    with _service(database, workers=2) as service:
        handle = service.submit(requests)
        assert _snapshot(handle.result(timeout=120)) == serial_snapshot
        assert handle.done()
        assert handle.exception() is None
        report = handle.report()
        assert report.num_requests == len(requests)
        assert report.mode == "process"
        assert set(report.worker_pids) <= set(service.worker_pids)


def test_concurrent_submit_from_threads(database, requests, serial_snapshot):
    with _service(database, workers=2) as service:
        snapshots = {}
        errors = []

        def submitter(worker_id):
            try:
                handles = [service.submit(requests) for _ in range(2)]
                snapshots[worker_id] = [
                    _snapshot(handle.result(timeout=120)) for handle in handles
                ]
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=submitter, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(snapshots) == 4
        for batches in snapshots.values():
            assert all(snap == serial_snapshot for snap in batches)


# --------------------------------------------------------------------- #
# the lane start path
# --------------------------------------------------------------------- #
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork here"
)


@needs_fork
def test_forked_lanes_inherit_the_engine_without_a_pickle(database, requests):
    with _service(database, workers=2, start_method="fork") as service:
        assert service.payload_nbytes == 0
        probe = service.probe_workers()
        assert probe == {
            "pid": probe["pid"], "num_objects": len(database), "epoch": 0
        }
        assert probe["pid"] != os.getpid()


def test_spawned_lane_initargs_stay_under_a_pipe_buffer():
    # a process start writes the initargs through a pipe; past 64 KiB a
    # lane that dies at bootstrap would leave that write blocked forever
    big = uniform_rectangle_database(num_objects=15_000, max_extent=0.006, seed=5)
    engine = QueryEngine(big)
    with QueryService(engine, ExecutorConfig(workers=1, start_method="spawn")) as service:
        (lane,) = service._pool._lanes
        (path, _lane) = lane._initargs
        assert len(pickle.dumps(lane._initargs)) < 64 * 1024
        # the engine itself went through the lane's file instead
        assert service.payload_nbytes > 64 * 1024
        assert service.probe_workers()["num_objects"] == 15_000
        assert not os.path.exists(path)  # removed once the lane started


def test_share_memory_option_is_gone(database):
    with pytest.raises(TypeError, match="share_memory"):
        _service(database, workers=1, share_memory=False)


def test_bounds_store_path_option_is_gone(database, tmp_path):
    with pytest.raises(TypeError, match="bounds_store_path"):
        _service(database, workers=1, bounds_store_path=str(tmp_path))
    assert not list(tmp_path.iterdir())  # no lane file was written


def test_query_service_accepts_exactly_its_settings():
    assert list(inspect.signature(QueryService).parameters) == [
        "engine",
        "executor",
        "atexit_cleanup",
        "max_pending_batches",
        "max_pending_requests",
        "max_chunk_retries",
        "watchdog_grace",
    ]


def test_worker_pool_accepts_exactly_its_settings():
    assert list(inspect.signature(WorkerPool).parameters) == [
        "engine", "workers", "start_method", "max_chunk_retries", "watchdog_grace"
    ]


# removed in 8.0.0: warm_start went with the warm-start files, supervised=False
# was max_chunk_retries=0, and retry_backoff is a module constant
@pytest.mark.parametrize(
    "option, value",
    [("warm_start", None), ("supervised", False), ("retry_backoff", 0.0)],
)
def test_removed_worker_pool_options_raise_type_error(database, option, value):
    before = set(multiprocessing.active_children())
    with pytest.raises(TypeError, match=option):
        WorkerPool(QueryEngine(database), 1, **{option: value})
    assert set(multiprocessing.active_children()) == before  # no lane started


# --------------------------------------------------------------------- #
# shutdown: idempotent, queue-draining, leak-free
# --------------------------------------------------------------------- #
def test_close_is_idempotent_and_rejects_submits(database, requests):
    service = _service(database, workers=2)
    service.evaluate_many(requests[:2])
    service.close()
    service.close()
    assert service.closed
    with pytest.raises(RuntimeError, match="closed"):
        service.submit(requests)
    with pytest.raises(RuntimeError, match="closed"):
        service.probe_workers()


def test_close_reaps_workers(database, requests):
    before = set(multiprocessing.active_children())
    service = _service(database, workers=2)
    service.evaluate_many(requests[:2])
    service.close()
    leaked = set(multiprocessing.active_children()) - before
    assert not leaked


def test_poisoned_request_fails_batch_but_not_service(
    database, requests, serial_snapshot
):
    before = set(multiprocessing.active_children())
    service = _service(database, workers=2)
    poisoned = [requests[0], KNNQuery(reference_or_index(database), k=0, tau=0.5)]
    with pytest.raises(ValueError, match="k must be positive"):
        service.evaluate_many(poisoned)
    # the pool survived: the next batch still runs, on the same pids
    got = _snapshot(service.evaluate_many(requests))
    assert got == serial_snapshot
    service.close()
    assert not (set(multiprocessing.active_children()) - before)


def reference_or_index(database):
    """A valid query spec for the poisoned request (index 0)."""
    return 0


def test_submitted_batches_drain_before_close(database, requests, serial_snapshot):
    service = _service(database, workers=2)
    handles = [service.submit(requests) for _ in range(3)]
    service.close(wait=True)
    for handle in handles:
        assert _snapshot(handle.result(timeout=0)) == serial_snapshot


def test_service_accepts_bare_database(database, requests, serial_snapshot):
    with QueryService(database, ExecutorConfig(workers=1)) as service:
        assert isinstance(service.engine, QueryEngine)
        assert _snapshot(service.evaluate_many(requests)) == serial_snapshot


def test_submit_rejects_invalid_deadlines_eagerly(database, requests):
    """Bad deadline values fail at submit time, not as DeadlineExceeded."""
    with _service(database, workers=1) as service:
        for bad in (0, -1.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="deadline"):
                service.submit(requests, deadline=bad)
        # an absolute epoch already in the past can only ever resolve
        # DeadlineExceeded — reject it before it enters the queue
        with pytest.raises(ValueError, match="expired"):
            service.submit(requests, deadline_epoch=time.time() - 1.0)
        with pytest.raises(ValueError, match="deadline_epoch"):
            service.submit(requests, deadline_epoch=float("nan"))
        # relative and absolute deadlines are mutually exclusive
        with pytest.raises(ValueError, match="not both"):
            service.submit(requests, deadline=5.0, deadline_epoch=time.time() + 5.0)
        # rejected submits consumed no admission slots and the service
        # still works: a valid absolute deadline far away completes fine
        assert service.pending_batches == 0
        handle = service.submit(requests, deadline_epoch=time.time() + 120.0)
        assert handle.result(timeout=60) is not None

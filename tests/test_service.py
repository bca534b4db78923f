"""QueryService lifecycle: pool reuse, determinism, queue, shutdown, leaks.

The contract under test (``repro/engine/service.py``): one worker pool —
spawned at construction — serves every batch of the service's lifetime
(observable through stable worker pids), results stay bit-identical to the
serial path at every worker count, workers attach the dataset through
shared memory (falling back to pickling cleanly), and shutdown is
idempotent, drains the queue, reaps every worker process and unlinks the
shared block even after a poisoned batch.

The file runs on either dataset transport: under
``REPRO_DISABLE_SHARED_MEMORY=1`` the shared-memory cases are skipped and
the lifecycle checks run on the pickle transport.
"""

from __future__ import annotations

import multiprocessing
import os
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
)
from repro.uncertain import sharedmem

#: ``share_memory=`` values for the lifecycle tests: the pickle transport
#: always, the shared-memory one where the platform (and the environment)
#: allows it.
TRANSPORTS = [
    pytest.param(False, id="pickle"),
    pytest.param(
        True,
        id="shared_memory",
        marks=pytest.mark.skipif(
            not sharedmem.shared_memory_available(), reason="no shared memory here"
        ),
    ),
]


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


def _service(database, workers=2, **kwargs):
    return QueryService(
        QueryEngine(database), ExecutorConfig(workers=workers), **kwargs
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
    # only the short-lived service of an ExecutorConfig is closed by the
    # call; a caller's service keeps its lanes for the next batch
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
# shared-memory transport and its fallback
# --------------------------------------------------------------------- #
@pytest.mark.skipif(
    not sharedmem.shared_memory_available(), reason="no shared memory here"
)
def test_workers_attach_database_via_shared_memory(database, requests):
    import pickle

    # measured before the export exists: the full-copy payload per worker
    plain_engine = len(pickle.dumps(QueryEngine(database)))
    with _service(database, workers=2) as service:
        assert service.transport == "shared_memory"
        probe = service.probe_workers()
        assert probe["transport"] == "shared_memory"
        assert probe["shm_name"] == service._export.handle.shm_name
        assert probe["num_objects"] == len(database)
        # the per-worker payload is a handle, not a database copy
        assert service.payload_nbytes < plain_engine


def test_fallback_when_shared_memory_unavailable(
    database, requests, serial_snapshot, monkeypatch
):
    monkeypatch.setenv(sharedmem.DISABLE_ENV, "1")
    with _service(database, workers=2) as service:
        assert service.transport == "pickle"
        probe = service.probe_workers()
        assert probe["transport"] == "pickle"
        assert probe["shm_name"] is None
        got = _snapshot(service.evaluate_many(requests))
        assert got == serial_snapshot


def test_share_memory_explicitly_false(database, requests, serial_snapshot):
    with _service(database, workers=1, share_memory=False) as service:
        assert service.transport == "pickle"
        assert _snapshot(service.evaluate_many(requests)) == serial_snapshot


def test_share_memory_true_raises_when_unavailable(database, monkeypatch):
    monkeypatch.setenv(sharedmem.DISABLE_ENV, "1")
    with pytest.raises(RuntimeError, match="unavailable"):
        _service(database, workers=1, share_memory=True)


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


@pytest.mark.parametrize("share_memory", TRANSPORTS)
def test_close_reaps_workers_and_unlinks_block(database, requests, share_memory):
    before = set(multiprocessing.active_children())
    service = _service(database, workers=2, share_memory=share_memory)
    service.evaluate_many(requests[:2])
    if share_memory:
        name = service._export.handle.shm_name
        if os.path.isdir("/dev/shm"):  # POSIX shm is a real fs only on Linux
            assert os.path.exists(f"/dev/shm/{name}")
        export_active = service._export.active
        assert export_active
    service.close()
    leaked = set(multiprocessing.active_children()) - before
    assert not leaked
    assert service._export is None
    if share_memory:
        assert not os.path.exists(f"/dev/shm/{name}")


@pytest.mark.parametrize("share_memory", TRANSPORTS)
def test_poisoned_request_fails_batch_but_not_service(
    database, requests, serial_snapshot, share_memory
):
    before = set(multiprocessing.active_children())
    service = _service(database, workers=2, share_memory=share_memory)
    name = service._export.handle.shm_name if share_memory else None
    poisoned = [requests[0], KNNQuery(reference_or_index(database), k=0, tau=0.5)]
    with pytest.raises(ValueError, match="k must be positive"):
        service.evaluate_many(poisoned)
    # the pool survived: the next batch still runs, on the same pids
    got = _snapshot(service.evaluate_many(requests))
    assert got == serial_snapshot
    export = service._export
    service.close()
    assert not (set(multiprocessing.active_children()) - before)
    if share_memory:
        assert not export.active  # unlinked on every platform ...
        if os.path.isdir("/dev/shm"):  # ... and verifiably gone where shm is a fs
            assert not os.path.exists(f"/dev/shm/{name}")


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

"""Chaos suite: the service tier under injected faults.

Every test drives a real fault through ``repro.testing.faults`` — a
``SIGKILL`` delivered inside a worker, a lane wedged past its deadline, a
scribbled-on bounds-store record, a shared block unlinked mid-service —
and asserts the recovery contract of ``docs/architecture.md``'s failure
model: results stay **bit-identical to the serial path**, the service
stays usable, and nothing leaks (the autouse fixture fails any test that
orphans a child process or leaves a ``/dev/shm`` block linked).

The suite honours two environment switches the CI fault-injection job
matrixes over: ``REPRO_TEST_START_METHOD`` (``fork`` / ``spawn``) picks
the pool start method, and ``REPRO_DISABLE_SHARED_MEMORY=1`` runs the
whole suite on the pickle transport with the bounds store disabled (the
store-specific tests skip themselves there).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.datasets import random_reference_object, uniform_rectangle_database
from repro.engine import (
    BatchReport,
    DeadlineExceeded,
    ExecutorConfig,
    KNNQuery,
    QueryEngine,
    QueryService,
    RangeQuery,
    RankingQuery,
    RKNNQuery,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    WorkerCrashError,
    WorkerPool,
    adaptive_chunk_size,
    bound_store_available,
    partition_requests,
)
from repro.engine.boundstore import BoundStoreClient, SharedBoundStore
from repro.testing.faults import (
    ANY_LANE,
    FaultPlan,
    assert_no_leaked_resources,
    corrupt_boundstore_record,
    drop_shared_block,
    inject_faults,
    kill_worker,
    snapshot_resources,
)

# The CI job matrixes the suite over start methods through this variable;
# locally it is unset and the platform default applies.
START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or None

needs_shm = pytest.mark.skipif(
    not bound_store_available(),
    reason="shared-memory bounds store unavailable on this platform/config",
)


# --------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------- #
@pytest.fixture(autouse=True)
def no_leaked_resources():
    """Fail any test that orphans a worker or leaves a shm block linked."""
    before = snapshot_resources()
    yield
    assert_no_leaked_resources(before)


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
        QueryEngine(database),
        ExecutorConfig(workers=workers, start_method=START_METHOD),
        **kwargs,
    )


# --------------------------------------------------------------------- #
# worker crash: supervision, respawn, re-driven chunks
# --------------------------------------------------------------------- #
def test_sigkill_mid_batch_recovers_bit_identical(database, requests, serial_snapshot):
    plan = FaultPlan(kill_lane=ANY_LANE, kill_after_chunks=0, kill_once=True)
    with inject_faults(plan):
        with _service(database, workers=2) as service:
            got = _snapshot(service.evaluate_many(requests))
            assert got == serial_snapshot
            report = service.last_batch_report
            assert report.worker_respawns >= 1
            assert report.chunk_retries >= 1
            # the respawned lane serves the next batch cleanly (kill fired once)
            again = _snapshot(service.evaluate_many(requests))
            assert again == serial_snapshot
            assert service.last_batch_report.worker_respawns == 0


def test_kill_between_batches_respawns_on_submit(database, requests, serial_snapshot):
    with _service(database, workers=2) as service:
        assert _snapshot(service.evaluate_many(requests)) == serial_snapshot
        for pid in service.worker_pids:
            kill_worker(pid)
        # the next batch transparently respawns the dead lanes
        assert _snapshot(service.evaluate_many(requests)) == serial_snapshot
        assert service.worker_respawns >= 1


def test_kill_later_chunk_still_recovers(database, requests, serial_snapshot):
    # the crash lands mid-stream (after the worker already completed work),
    # so recovery must re-drive only the lost chunk, not restart the batch
    plan = FaultPlan(kill_lane=ANY_LANE, kill_after_chunks=1, kill_once=True)
    with inject_faults(plan):
        with _service(database, workers=1) as service:
            # force several chunks through one lane so chunk #2 exists
            got = _snapshot(service.evaluate_many(requests, chunk_size=1))
            assert got == serial_snapshot
            assert service.last_batch_report.worker_respawns >= 1
            assert service.last_batch_report.chunk_retries >= 1


def test_unsupervised_pool_surfaces_worker_crash(database, requests):
    engine = QueryEngine(database)
    plan = FaultPlan(kill_lane=ANY_LANE, kill_after_chunks=0, kill_once=True)
    with inject_faults(plan):
        with WorkerPool(
            engine, workers=1, start_method=START_METHOD, supervised=False
        ) as pool:
            chunks = partition_requests(requests, 1)
            with pytest.raises(WorkerCrashError):
                pool.run_chunks(requests, chunks)


def test_retry_budget_exhaustion_raises_worker_crash(database, requests):
    # a deterministic crasher (kill on *every* chunk start) burns through the
    # bounded retry budget and must surface as WorkerCrashError, not a hang
    engine = QueryEngine(database)
    plan = FaultPlan(kill_lane=ANY_LANE, kill_after_chunks=0, kill_once=False)
    with inject_faults(plan):
        with WorkerPool(
            engine,
            workers=1,
            start_method=START_METHOD,
            max_chunk_retries=2,
            retry_backoff=0.01,
        ) as pool:
            chunks = partition_requests(requests, 1)
            with pytest.raises(WorkerCrashError, match="died running chunk"):
                pool.run_chunks(requests, chunks)
            assert pool.respawns >= 2


# --------------------------------------------------------------------- #
# deadlines: cooperative worker checks and the hard watchdog
# --------------------------------------------------------------------- #
def test_watchdog_terminates_wedged_lane(database, requests, serial_snapshot):
    # a 60 s sleep cannot be interrupted cooperatively — only the parent's
    # watchdog can reclaim the lane, by SIGKILL + respawn.  One worker, so
    # the wedged lane is the only lane and no healthy worker can turn this
    # into a cooperative in-worker deadline instead.
    plan = FaultPlan(delay_lane=ANY_LANE, delay_seconds=60.0, delay_once=True)
    with inject_faults(plan):
        with _service(database, workers=1, watchdog_grace=0.5) as service:
            started = time.monotonic()
            with pytest.raises(DeadlineExceeded, match="wedged"):
                service.evaluate_many(requests, deadline=0.5)
            # reclaimed within deadline + grace + slack, not after 60 s
            assert time.monotonic() - started < 30.0
            assert service.worker_respawns >= 1
            # the service survives the kill and serves the next batch
            assert _snapshot(service.evaluate_many(requests)) == serial_snapshot


def test_deadline_raises_cleanly_from_worker(database, requests):
    # a stall lets the *cooperative* deadline checks fire inside the
    # worker — no watchdog kill, no respawn.  The stall is 4x the deadline
    # (not a hair over it) so a loaded CI machine cannot finish the delayed
    # chunk before the deadline trips
    plan = FaultPlan(delay_lane=ANY_LANE, delay_seconds=2.0, delay_once=True)
    with inject_faults(plan):
        with _service(database, workers=1, watchdog_grace=30.0) as service:
            with pytest.raises(DeadlineExceeded):
                service.evaluate_many(requests, deadline=0.5)
            assert service.worker_respawns == 0


def test_deadline_expires_while_queued(database, requests):
    # one lane, held busy by a delayed batch: the second batch's deadline
    # passes before it ever reaches the pool and must fail fast in-queue.
    # The busy batch holds the lane ~6x longer than the queued deadline so
    # scheduling jitter cannot let the queued batch start in time
    plan = FaultPlan(delay_lane=ANY_LANE, delay_seconds=2.0, delay_once=True)
    with inject_faults(plan):
        with _service(database, workers=1) as service:
            busy = service.submit(requests)
            queued = service.submit(requests, deadline=0.3)
            with pytest.raises(DeadlineExceeded, match="queued"):
                queued.result(timeout=60)
            assert busy.result(timeout=60) is not None
            assert busy.exception() is None


def test_deadline_validation(database, requests):
    with _service(database, workers=1) as service:
        with pytest.raises(ValueError, match="deadline"):
            service.submit(requests, deadline=0)
        with pytest.raises(ValueError, match="deadline"):
            service.submit(requests, deadline=-1.5)


def test_batch_without_deadline_is_unaffected(database, requests, serial_snapshot):
    with _service(database, workers=2) as service:
        got = _snapshot(service.evaluate_many(requests, deadline=300.0))
        assert got == serial_snapshot
        # a clean run neither respawns a lane nor retries a chunk
        report = service.last_batch_report
        assert report.worker_respawns == report.chunk_retries == 0


# --------------------------------------------------------------------- #
# bounds-store corruption and loss: graceful degradation
# --------------------------------------------------------------------- #
@needs_shm
def test_corrupt_record_demotes_reader_client():
    store = SharedBoundStore(num_slots=64, segment_bytes=4096, num_segments=2)
    try:
        writer = BoundStoreClient.from_handle(store.handle)
        key = b"0123456789abcdef"
        assert writer.put(key, np.array([0.1, 0.2]), np.array([0.3, 0.4]))
        clean = BoundStoreClient.from_handle(store.handle)
        assert clean.get(key) is not None
        assert corrupt_boundstore_record(store, max_records=None) >= 1
        reader = BoundStoreClient.from_handle(store.handle)
        # the validated read rejects the record instead of returning garbage
        assert reader.get(key) is None
        assert reader.corruptions == 1
        assert reader.demoted
        assert not reader.writable  # demotion also stops publishing
        assert reader.stats()["demoted"] is True
    finally:
        store.close()


@needs_shm
def test_corruption_mid_service_demotes_worker(database, requests, serial_snapshot):
    with _service(database, workers=2) as service:
        assert _snapshot(service.evaluate_many(requests)) == serial_snapshot
        # scribble over every record batch 1 published, then force fresh
        # workers (empty local caches) so batch 2 must consult the store
        assert corrupt_boundstore_record(service._bound_store, max_records=None) >= 1
        for pid in service.worker_pids:
            kill_worker(pid)
        got = _snapshot(service.evaluate_many(requests))
        assert got == serial_snapshot  # local memoisation fallback, same bits
        report = service.last_batch_report
        assert report.shared_corruptions >= 1
        assert report.degraded_workers >= 1


@needs_shm
def test_shm_drop_degrades_respawned_worker(database, requests, serial_snapshot):
    with _service(database, workers=2) as service:
        assert _snapshot(service.evaluate_many(requests)) == serial_snapshot
        # unlink the store's block, then kill the workers: the respawned
        # initializer cannot attach and must demote instead of crash-looping
        for pid in service.worker_pids:
            kill_worker(pid)
        assert drop_shared_block(service._bound_store.handle.shm_name)
        got = _snapshot(service.evaluate_many(requests))
        assert got == serial_snapshot
        report = service.last_batch_report
        assert report.worker_respawns >= 1
        assert report.degraded_workers >= 1


# --------------------------------------------------------------------- #
# claim leases under crashes: mid-protocol kills and lease steals
# --------------------------------------------------------------------- #
def _claim_and_hang(handle, key, claimed):
    """Child: acquire a claim, report it, then wedge until SIGKILLed."""
    client = BoundStoreClient.from_handle(handle)
    client.claim(key)
    claimed.set()
    time.sleep(120)


@needs_shm
def test_dead_claimants_claim_is_stolen_and_published_once():
    # the tentpole recovery path: a worker that published its *intent* to
    # compute a column and was then SIGKILLed mid-compute must not block
    # the key forever — a survivor steals the lease and publishes, once
    context = multiprocessing.get_context(START_METHOD)
    key = b"steal-me-0123456"
    store = SharedBoundStore(num_slots=256, num_segments=2, mp_context=context)
    try:
        claimed = context.Event()
        child = context.Process(
            target=_claim_and_hang, args=(store.handle, key, claimed)
        )
        child.start()
        assert claimed.wait(timeout=30.0)
        kill_worker(child.pid)
        survivor = BoundStoreClient.from_handle(store.handle)
        # the holder is dead: no lease wait, the claim is stolen outright
        assert survivor.claim(key) == "stolen"
        assert survivor.claim_steals == 1
        column = np.array([0.125, 0.625])
        assert survivor.put(key, column, column + 0.25)
        assert survivor.release(key)
        # exactly one column is readable, and a re-publish is a duplicate
        got = BoundStoreClient.from_handle(store.handle).get(key)
        np.testing.assert_array_equal(got[0], column)
        late = store.reader()
        assert not late.put(key, column, column + 0.25)
    finally:
        store.close()


@needs_shm
def test_sigkill_during_publish_recovers_bit_identical(
    database, requests, serial_snapshot
):
    # the crash lands *between* the record append and the index publish —
    # the worst spot: the segment cursor has advanced but no slot points at
    # the record.  The orphaned record must never surface (no corruption,
    # no demotion) and the re-driven chunk keeps results bit-identical.
    plan = FaultPlan(kill_during_publish=True)
    with inject_faults(plan):
        with _service(database, workers=2) as service:
            got = _snapshot(service.evaluate_many(requests))
            assert got == serial_snapshot
            report = service.last_batch_report
            assert report.worker_respawns >= 1
            assert report.chunk_retries >= 1
            assert report.shared_corruptions == 0
            again = _snapshot(service.evaluate_many(requests))
            assert again == serial_snapshot
            follow_up = service.last_batch_report
            assert follow_up.worker_respawns == 0
            assert follow_up.degraded_workers == 0
            assert follow_up.shared_corruptions == 0


@needs_shm
def test_sigkill_after_claim_is_stolen_by_redriven_chunk(
    database, requests, serial_snapshot
):
    # the worker dies right after recording an in-flight claim: the chunk
    # is re-driven, the replacement worker finds the dead holder's claim
    # and steals it instead of waiting out the lease
    plan = FaultPlan(kill_after_claim=True)
    with inject_faults(plan):
        with _service(database, workers=2) as service:
            got = _snapshot(service.evaluate_many(requests))
            assert got == serial_snapshot
            report = service.last_batch_report
            assert report.worker_respawns >= 1
            assert report.claim_steals >= 1
            assert report.shared_corruptions == 0
            assert _snapshot(service.evaluate_many(requests)) == serial_snapshot


# --------------------------------------------------------------------- #
# bounds-store exhaustion (satellite): store-full and segment-exhausted
# --------------------------------------------------------------------- #
@needs_shm
def test_store_full_under_concurrent_publishers_degrades_to_local():
    # smallest legal store: fills after a handful of records
    store = SharedBoundStore(num_slots=64, segment_bytes=4096, num_segments=2)
    try:
        clients = [BoundStoreClient.from_handle(store.handle) for _ in range(2)]
        # small records: the two 4 KiB segments hold more columns than the
        # 64-slot index can address, so the *index* is what saturates and
        # the clients' full-latch must come from the probe-failure streak
        lower = np.array([0.25])
        upper = np.array([0.75])

        def publisher(client, salt):
            for i in range(300):
                client.put(b"%08d-%08d" % (salt, i), lower, upper)

        threads = [
            threading.Thread(target=publisher, args=(client, salt))
            for salt, client in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # both publishers hit the wall and latched read-only…
        assert all(not client.writable for client in clients)
        assert sum(client.rejected for client in clients) > 0
        # …without corrupting what was published first
        published = sum(client.publishes for client in clients)
        assert published > 0
        reader = BoundStoreClient.from_handle(store.handle)
        served = sum(
            reader.get(b"%08d-%08d" % (salt, i)) is not None
            for salt in range(2)
            for i in range(300)
        )
        assert served == store.stats()["filled_slots"] > 0
        # lookups for never-published keys miss cleanly and are accounted
        assert reader.get(b"never-published!") is None
        assert reader.misses >= 1
        assert reader.corruptions == 0
    finally:
        store.close()


@needs_shm
def test_segment_exhaustion_makes_late_clients_read_only():
    store = SharedBoundStore(num_slots=64, segment_bytes=4096, num_segments=1)
    try:
        first = BoundStoreClient.from_handle(store.handle)
        second = BoundStoreClient.from_handle(store.handle)
        assert first.writable
        assert not second.writable  # no segment left: read-only, not an error
        key = b"fedcba9876543210"
        assert first.put(key, np.array([0.5]), np.array([0.6]))
        assert not second.put(key + b"!", np.array([0.5]), np.array([0.6]))
        assert second.rejected == 1
        assert second.get(key) is not None  # reads still work
        assert second.hits == 1
    finally:
        store.close()


@needs_shm
def test_service_survives_tiny_store_exhaustion(
    database, requests, serial_snapshot, monkeypatch
):
    # shrink the service's store to the legal minimum so real batches
    # exhaust it; results must not change — workers fall back to their
    # process-local memoisation and the misses are accounted
    import repro.engine.service as service_module

    original = service_module.SharedBoundStore

    def tiny_store(**kwargs):
        kwargs.update(num_slots=64, segment_bytes=4096)
        return original(**kwargs)

    monkeypatch.setattr(service_module, "SharedBoundStore", tiny_store)
    with _service(database, workers=2) as service:
        for _ in range(2):
            assert _snapshot(service.evaluate_many(requests)) == serial_snapshot
        report = service.last_batch_report
        assert report.degraded_workers == 0  # full ≠ corrupt: no demotion
        assert report.shared_corruptions == 0
        store_stats = service._bound_store.stats()
        assert store_stats["filled_slots"] <= 64


# --------------------------------------------------------------------- #
# admission control: bounded queue, fast rejection
# --------------------------------------------------------------------- #
def test_admission_bounds_pending_batches(database, requests, serial_snapshot):
    # the delay only has to outlast the few microseconds between the three
    # submits below, but a wide margin keeps the test calm under CI load
    plan = FaultPlan(delay_lane=ANY_LANE, delay_seconds=1.5, delay_once=True)
    with inject_faults(plan):
        with _service(database, workers=1, max_pending_batches=2) as service:
            first = service.submit(requests)
            second = service.submit(requests)
            with pytest.raises(ServiceOverloadedError, match="max_pending_batches"):
                service.submit(requests)
            # rejection is load shedding, not failure: in-flight work finishes
            assert _snapshot(first.result(timeout=120)) == serial_snapshot
            assert _snapshot(second.result(timeout=120)) == serial_snapshot
            # and capacity frees up once the queue drains
            assert service.pending_batches == 0
            assert _snapshot(service.submit(requests).result(timeout=120)) == (
                serial_snapshot
            )


def test_admission_bounds_pending_requests(database, requests):
    plan = FaultPlan(delay_lane=ANY_LANE, delay_seconds=1.5, delay_once=True)
    with inject_faults(plan):
        limit = len(requests) + 2  # one full batch fits, a second cannot
        with _service(database, workers=1, max_pending_requests=limit) as service:
            held = service.submit(requests)
            assert service.pending_requests == len(requests)
            with pytest.raises(ServiceOverloadedError, match="max_pending_requests"):
                service.submit(requests)
            held.result(timeout=120)
            assert service.pending_requests == 0


def test_admission_limit_validation(database):
    for kwargs in (
        {"max_pending_batches": 0},
        {"max_pending_batches": -1},
        {"max_pending_requests": 0},
        {"max_pending_requests": 2.5},
    ):
        with pytest.raises((ValueError, TypeError)):
            _service(database, workers=1, **kwargs).close()


def test_overload_error_is_a_service_error(database, requests):
    with _service(database, workers=1, max_pending_batches=1) as service:
        plan_free_probe = service.submit(requests[:1])
        try:
            service.submit(requests)
        except ServiceOverloadedError as error:
            assert isinstance(error, ServiceError)
            assert isinstance(error, RuntimeError)
        plan_free_probe.result(timeout=120)


# --------------------------------------------------------------------- #
# close() vs concurrent submit(): the satellite race fix
# --------------------------------------------------------------------- #
def test_submit_after_close_raises_typed_error(database, requests):
    service = _service(database, workers=1)
    service.close()
    with pytest.raises(ServiceClosedError, match="closed"):
        service.submit(requests)
    with pytest.raises(ServiceClosedError):
        service.probe_workers()


def test_abandoned_queue_resolves_with_closed_error(database, requests):
    plan = FaultPlan(delay_lane=ANY_LANE, delay_seconds=1.0, delay_once=True)
    with inject_faults(plan):
        service = _service(database, workers=1)
        running = service.submit(requests)
        queued = [service.submit(requests) for _ in range(2)]
        service.close(wait=False)
        assert service.closed
        # every handle resolves: nothing hangs, nothing silently vanishes
        for handle in queued:
            with pytest.raises(ServiceClosedError):
                handle.result(timeout=60)
        # the batch that was already running may finish or be abandoned,
        # but it must resolve either way
        try:
            running.result(timeout=60)
        except ServiceClosedError:
            pass


def test_close_races_concurrent_submitters(database, requests):
    service = _service(database, workers=2)
    outcomes: list[str] = []
    outcomes_lock = threading.Lock()
    start = threading.Barrier(5)
    # event-based sync instead of a wall-clock sleep: close() races in only
    # once at least one submit has demonstrably landed, on any machine speed
    first_submit_landed = threading.Event()

    def submitter():
        start.wait()
        for _ in range(6):
            try:
                handle = service.submit(requests[:2])
                first_submit_landed.set()
            except ServiceClosedError:
                with outcomes_lock:
                    outcomes.append("rejected")
                continue
            try:
                results = handle.result(timeout=60)
                assert len(results) == 2
                with outcomes_lock:
                    outcomes.append("completed")
            except ServiceClosedError:
                with outcomes_lock:
                    outcomes.append("abandoned")

    threads = [threading.Thread(target=submitter) for _ in range(4)]
    for thread in threads:
        thread.start()
    start.wait()
    assert first_submit_landed.wait(timeout=30.0)
    service.close(wait=False)
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    # exactly 24 submit attempts, every one accounted for — the closed-check
    # and the enqueue are atomic, so no submit slipped into a dead queue
    assert len(outcomes) == 24
    assert service.closed
    assert service.pending_batches == 0


def test_close_remains_idempotent_under_faults(database, requests):
    plan = FaultPlan(kill_lane=ANY_LANE, kill_after_chunks=0, kill_once=True)
    with inject_faults(plan):
        service = _service(database, workers=2)
        service.evaluate_many(requests)
        service.close()
        service.close()
        assert service.closed


# --------------------------------------------------------------------- #
# adaptive sizing guard (satellite): zero-completed history is harmless
# --------------------------------------------------------------------- #
def test_adaptive_chunk_size_without_cost_history():
    assert adaptive_chunk_size(10, 2, None) is None
    assert adaptive_chunk_size(10, 2, 0.0) is None
    assert adaptive_chunk_size(10, 2, -1.0) is None
    assert adaptive_chunk_size(0, 2, 0.5) is None


def test_zero_completed_report_does_not_poison_adaptive_sizing(
    database, requests, serial_snapshot
):
    # a report with requests but no completed chunks (e.g. a batch that
    # failed before any chunk ran) must not divide-by-zero the next batch's
    # adaptive sizing — it simply carries no cost signal
    engine = QueryEngine(database)
    engine.last_batch_report = BatchReport(
        mode="process",
        workers=2,
        chunking="affinity",
        chunk_size=None,
        num_requests=len(requests),
        elapsed_seconds=0.0,
        chunks=(),
    )
    assert engine.last_batch_report.completed_requests == 0
    config = ExecutorConfig(
        mode="process", workers=2, chunk_size="adaptive", start_method=START_METHOD
    )
    got = _snapshot(engine.evaluate_many(requests, executor=config))
    assert got == serial_snapshot

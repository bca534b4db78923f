"""Chaos suite: the service tier under injected faults.

Every test drives a real fault through ``repro.testing.faults`` — a
``SIGKILL`` delivered inside a worker, a lane wedged past its deadline, a
lane whose start raises — and asserts the recovery contract of
``docs/architecture.md``'s failure model: results stay **bit-identical to
the serial path**, for every request kind, the service
stays usable, and nothing leaks (the autouse fixture fails any test that
orphans a child process or leaves a ``/dev/shm`` block linked).

The CI fault-injection job matrixes the suite over
``REPRO_TEST_START_METHOD`` (``fork`` / ``spawn``), which picks the pool
start method; the lane-start test names both methods itself.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import tempfile
import threading
import time

import pytest

from repro.datasets import random_reference_object, uniform_rectangle_database
from repro.engine import (
    DeadlineExceeded,
    DominationCountQuery,
    ExecutorConfig,
    InverseRankingQuery,
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
)
from repro.testing.faults import (
    ANY_LANE,
    FaultPlan,
    assert_no_leaked_resources,
    inject_faults,
    kill_worker,
    snapshot_resources,
)

# The CI job matrixes the suite over start methods through this variable;
# locally it is unset and the platform default applies.
START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or None

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
            # domination count (an IDCAResult) or inverse ranking
            bounds = getattr(result, "bounds", result)
            snap.append((list(map(float, bounds.lower)), list(map(float, bounds.upper))))
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
    engine = QueryEngine(database)
    with inject_faults(plan):
        with WorkerPool(engine, workers=1, start_method=START_METHOD) as pool:
            # one request per chunk through one lane, so chunk #2 exists
            chunks = [[index] for index in range(len(requests))]
            results, _stats, faults = pool.run_chunks(
                requests, chunks, [0] * len(chunks)
            )
            assert _snapshot(results) == serial_snapshot
            assert faults["worker_respawns"] >= 1
            assert faults["chunk_retries"] >= 1


#: One request of every kind the engine serves, over a query object.
_KINDS = {
    "knn": lambda q: KNNQuery(q, k=3, tau=0.5, max_iterations=4),
    "rknn": lambda q: RKNNQuery(
        q, k=2, tau=0.5, max_iterations=3, candidate_indices=range(12)
    ),
    "range": lambda q: RangeQuery(q, epsilon=0.3, tau=0.5, max_depth=3),
    "ranking": lambda q: RankingQuery(q, max_iterations=2, candidate_indices=range(10)),
    "inverse_ranking": lambda q: InverseRankingQuery(5, q, max_iterations=3),
    "domination_count": lambda q: DominationCountQuery(5, q, max_iterations=3),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_a_respawned_lane_serves_every_request_kind_bit_identically(
    database, reference, kind
):
    # the lane dies as it starts the batch; its successor starts from the
    # parent's engine with an empty memo and recomputes every column
    batch = [_KINDS[kind](query) for query in (reference, 7, 11)]
    serial = _snapshot(QueryEngine(database).evaluate_many(batch))
    plan = FaultPlan(kill_lane=ANY_LANE, kill_after_chunks=0, kill_once=True)
    with inject_faults(plan):
        with _service(database, workers=1) as service:
            assert _snapshot(service.evaluate_many(batch)) == serial
            assert service.last_batch_report.worker_respawns == 1
            assert service.last_batch_report.kinds == {kind: len(batch)}
            # the respawned lane's own memo serves the repeat
            assert _snapshot(service.evaluate_many(batch)) == serial
            assert service.last_batch_report.worker_respawns == 0


def test_pool_without_retries_surfaces_worker_crash(database, requests):
    engine = QueryEngine(database)
    plan = FaultPlan(kill_lane=ANY_LANE, kill_after_chunks=0, kill_once=True)
    with inject_faults(plan):
        with WorkerPool(
            engine, workers=1, start_method=START_METHOD, max_chunk_retries=0
        ) as pool:
            chunks = [list(range(len(requests)))]
            with pytest.raises(WorkerCrashError, match="attempt 1"):
                pool.run_chunks(requests, chunks, [0])
            # the crashed lane was still replaced: the pool serves on
            assert pool.respawns == 1
            results, _stats, faults = pool.run_chunks(requests, chunks, [0])
            assert len(results) == len(requests)
            assert faults["chunk_retries"] == 0


@pytest.mark.parametrize("retries", [1, 2])
def test_any_positive_retry_budget_absorbs_one_crash(
    database, requests, serial_snapshot, retries
):
    engine = QueryEngine(database)
    plan = FaultPlan(kill_lane=ANY_LANE, kill_after_chunks=0, kill_once=True)
    with inject_faults(plan):
        with WorkerPool(
            engine, workers=1, start_method=START_METHOD, max_chunk_retries=retries
        ) as pool:
            chunks = [list(range(len(requests)))]
            results, _stats, faults = pool.run_chunks(requests, chunks, [0])
            assert _snapshot(results) == serial_snapshot
            assert faults["chunk_retries"] == 1
            assert pool.respawns == 1


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
        ) as pool:
            chunks = [list(range(len(requests)))]
            with pytest.raises(WorkerCrashError, match="died running chunk"):
                pool.run_chunks(requests, chunks, [0])
            assert pool.respawns >= 2


# --------------------------------------------------------------------- #
# lane start failure: typed, bounded, leak-free
# --------------------------------------------------------------------- #
class _FailsToLoad:
    """Pickles in the parent; unpickling it in a spawned lane raises."""

    def __reduce__(self):
        return (int, ("a lane start that fails",))


def _raise_at_start(*_args):
    raise RuntimeError("a lane start that fails")


@pytest.mark.parametrize(
    "method",
    [m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()],
)
def test_lane_start_failure_raises_worker_crash_error(
    database, requests, method, monkeypatch
):
    import repro.engine.executor as executor_module

    engine = QueryEngine(database)
    if method == "fork":
        # a forked lane runs the initializer object the parent holds
        monkeypatch.setattr(executor_module, "_initialise_worker", _raise_at_start)
    else:
        # a spawned lane unpickles the engine, and this attribute with it
        engine.lane_start_fault = _FailsToLoad()
    lane_files = os.path.join(tempfile.gettempdir(), "repro-lane-*")
    files_before = set(glob.glob(lane_files))
    started = time.monotonic()
    service = QueryService(
        engine, ExecutorConfig(workers=1, start_method=method), max_chunk_retries=1
    )
    try:
        with pytest.raises(WorkerCrashError):
            service.warm()
        with pytest.raises(WorkerCrashError):
            service.probe_workers()
        # the first batch respawns the lane, which fails to start again
        with pytest.raises(WorkerCrashError):
            service.evaluate_many(requests)
    finally:
        service.close()
    assert time.monotonic() - started < 30.0
    assert set(glob.glob(lane_files)) <= files_before  # no engine pickle left
    # no child is left: checked by the autouse no_leaked_resources fixture


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

"""Cross-worker shared bounds store: protocol, tiering, dispatch, determinism.

The contract under test (``repro/engine/boundstore.py`` plus its consumers):

* the store round-trips bounds columns bit-exactly, rejects writes cleanly
  when a segment or the index fills up, and never returns a torn record to
  a concurrent reader;
* stable keys translate process-local memo keys into process-independent
  ones (database positions for members, content digests for ad-hoc query
  objects) so parent and workers derive the same key for the same column;
* :class:`~repro.engine.context.TieredPairBoundsCache` reads through to the
  store on local misses and publishes fresh columns back, with counters
  surfaced through ``RefinementContext.stats`` / ``IterationStats`` /
  ``BatchReport``;
* worker-affine dispatch pins affinity buckets of successive batches to
  stable lanes, and cost-adaptive chunk sizing derives a cap from observed
  per-request cost;
* end to end, repeated batches through a :class:`QueryService` stay
  bit-identical to the serial path at workers=1/2/4 — with the store, with
  it disabled, and with shared memory disabled entirely — while the store
  absorbs the duplicate work (hit rate >= 50% on batch 2+).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import struct
import threading

import numpy as np
import pytest

from repro.datasets import random_reference_object, uniform_rectangle_database
from repro.engine import (
    ExecutorConfig,
    KNNQuery,
    QueryEngine,
    QueryService,
    WorkerPool,
    adaptive_chunk_size,
    affine_partition,
    affinity_lane,
    partition_requests,
)
from repro.engine.boundstore import (
    BoundStoreClient,
    SharedBoundStore,
    bound_store_available,
    config_fingerprint,
    database_digest,
    encode_stable_key,
    stable_object_key,
)
from repro.engine.context import TieredPairBoundsCache

pytestmark = pytest.mark.skipif(
    not bound_store_available(), reason="shared bounds store unavailable here"
)


@pytest.fixture(scope="module")
def database():
    return uniform_rectangle_database(num_objects=60, max_extent=0.05, seed=0)


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(11)
    return [
        random_reference_object(extent=0.05, rng=rng, label=f"query-{i}")
        for i in range(6)
    ]


@pytest.fixture(scope="module")
def batch(queries):
    return [KNNQuery(query, k=3, tau=0.5, max_iterations=4) for query in queries]


def _snapshot(results) -> list:
    snap = []
    for result in results:
        snap.append(
            [
                (m.index, m.probability_lower, m.probability_upper, m.decision,
                 m.iterations, m.sequence)
                for bucket in (result.matches, result.undecided, result.rejected)
                for m in bucket
            ]
            + [result.pruned]
        )
    return snap


@pytest.fixture(scope="module")
def serial_snapshot(database, batch):
    return _snapshot(QueryEngine(database).evaluate_many(batch))


def _key(i: int) -> bytes:
    return encode_stable_key(("test-key", i))


# --------------------------------------------------------------------- #
# store protocol
# --------------------------------------------------------------------- #
def test_roundtrip_is_bit_exact():
    with SharedBoundStore(num_slots=256, num_segments=2) as store:
        writer = BoundStoreClient.from_handle(store.handle)
        lower = np.linspace(-1.0, 1.0, 37)
        upper = np.linspace(0.0, 2.0, 37)
        assert writer.get(_key(0)) is None
        assert writer.put(_key(0), lower, upper)
        reader = store.reader()
        got = reader.get(_key(0))
        assert got is not None
        np.testing.assert_array_equal(got[0], lower)
        np.testing.assert_array_equal(got[1], upper)
        # returned arrays are private copies, not views into the block
        got[0][:] = 99.0
        again = reader.get(_key(0))
        np.testing.assert_array_equal(again[0], lower)


def test_unknown_key_misses():
    with SharedBoundStore(num_slots=256, num_segments=1) as store:
        reader = store.reader()
        assert reader.get(_key(123)) is None
        assert reader.stats()["misses"] == 1


def test_duplicate_publish_is_detected():
    with SharedBoundStore(num_slots=256, num_segments=2) as store:
        first = BoundStoreClient.from_handle(store.handle)
        second = BoundStoreClient.from_handle(store.handle)
        column = np.ones(8)
        assert first.put(_key(1), column, column)
        assert not second.put(_key(1), column, column)
        assert second.stats()["duplicates"] == 1
        # both still read the one published record
        np.testing.assert_array_equal(second.get(_key(1))[0], column)


def test_full_segment_degrades_to_read_only():
    with SharedBoundStore(num_slots=256, num_segments=1, segment_bytes=4096) as store:
        writer = BoundStoreClient.from_handle(store.handle)
        big = np.zeros(200)
        published = sum(writer.put(_key(i), big, big) for i in range(10))
        assert 1 <= published < 10
        assert writer.stats()["rejected"] > 0
        # an oversized rejection must not waste the leftover space: a small
        # column that still fits is accepted afterwards
        assert writer.writable
        small = np.ones(4)
        assert writer.put(_key(1000), small, small)
        # genuinely exhausting the segment does stop publishing, reads go on
        tiny = np.ones(1)
        filled = 1000
        while writer.writable and filled < 2000:
            filled += 1
            writer.put(_key(filled), tiny, tiny)
        assert not writer.writable
        for i in range(published):
            got = writer.get(_key(i))
            assert got is not None
            np.testing.assert_array_equal(got[0], big)
        np.testing.assert_array_equal(writer.get(_key(1000))[0], small)


def test_full_index_rejects_without_error():
    # 64 slots with a 32-slot probe window fill quickly; everything after
    # that is rejected, and every accepted record stays readable.
    with SharedBoundStore(num_slots=64, num_segments=1) as store:
        writer = BoundStoreClient.from_handle(store.handle)
        column = np.ones(4)
        accepted = [i for i in range(200) if writer.put(_key(i), column, column)]
        assert len(accepted) < 200
        assert writer.stats()["rejected"] > 0
        for i in accepted:
            assert writer.get(_key(i)) is not None


def test_segment_claims_are_unique_and_exhaustible():
    with SharedBoundStore(num_slots=256, num_segments=2) as store:
        clients = [BoundStoreClient.from_handle(store.handle) for _ in range(3)]
        assert [c.segment for c in clients] == [0, 1, None]
        assert not clients[2].writable
        assert not clients[2].put(_key(9), np.ones(4), np.ones(4))


def test_reader_close_leaves_owner_mapping_intact():
    with SharedBoundStore(num_slots=256, num_segments=1) as store:
        writer = BoundStoreClient.from_handle(store.handle)
        assert writer.put(_key(5), np.ones(4), np.ones(4))
        borrowed = store.reader()
        assert borrowed.get(_key(5)) is not None
        borrowed.close()
        # the owner's mapping survives a borrowed client's close
        assert store.stats()["filled_slots"] == 1
        assert store.reader().get(_key(5)) is not None
        writer.close()


def test_store_close_is_idempotent_and_unlinks():
    store = SharedBoundStore(num_slots=256, num_segments=1)
    handle = store.handle
    store.close()
    store.close()
    assert not store.active
    with pytest.raises(Exception):
        BoundStoreClient.from_handle(handle)


def test_constructor_validation():
    with pytest.raises(ValueError):
        SharedBoundStore(num_slots=8)
    with pytest.raises(ValueError):
        SharedBoundStore(num_segments=0)
    with pytest.raises(ValueError):
        SharedBoundStore(num_segments=1000)
    with pytest.raises(ValueError):
        SharedBoundStore(segment_bytes=64)


def test_env_kill_switch(monkeypatch):
    monkeypatch.setenv("REPRO_DISABLE_SHARED_BOUNDS", "1")
    assert not bound_store_available()
    with pytest.raises(RuntimeError):
        SharedBoundStore()
    monkeypatch.delenv("REPRO_DISABLE_SHARED_BOUNDS")
    monkeypatch.setenv("REPRO_DISABLE_SHARED_MEMORY", "1")
    assert not bound_store_available()


# --------------------------------------------------------------------- #
# stable keys
# --------------------------------------------------------------------- #
def test_database_members_key_by_position_and_generation(database):
    assert stable_object_key(database, database[7]) == ("db", 7, 7)
    assert stable_object_key(database, database[0]) == ("db", 0, 0)


def test_ad_hoc_objects_key_by_content_digest(database, queries):
    query = queries[0]
    kind, digest = stable_object_key(database, query)
    assert kind == "pickle"
    # the worker-side unpickled copy digests to the same value, so parent
    # and workers derive the same shared-store key for the same object;
    # digesting must not mutate the object (that would change its pickle
    # and break the cross-process agreement)
    copy = pickle.loads(pickle.dumps(query))
    assert "_repro_content_digest" not in vars(copy)
    assert stable_object_key(database, copy) == (kind, digest)
    # memoised: repeated calls agree without re-pickling
    assert stable_object_key(database, query) == (kind, digest)


def test_encoded_keys_are_deterministic_and_distinct():
    a = encode_stable_key(("pb1", "round_robin", (("db", 3), 2), (2.0, "optimal")))
    b = encode_stable_key(("pb1", "round_robin", (("db", 3), 2), (2.0, "optimal")))
    c = encode_stable_key(("pb1", "round_robin", (("db", 4), 2), (2.0, "optimal")))
    assert a == b and a != c


# --------------------------------------------------------------------- #
# concurrent access: publishers racing readers
# --------------------------------------------------------------------- #
def test_no_torn_reads_while_publishing():
    """Reader threads hammer the index while writers publish new columns.

    Every successful lookup must return exactly the column published for
    that key — a torn read would surface as a value mismatch (the payload
    is a deterministic function of the key) or as a validation crash.
    """
    num_keys = 150

    def expected(i: int) -> np.ndarray:
        return np.full(16, float(i) + 0.25)

    with SharedBoundStore(num_slots=1024, num_segments=3) as store:
        writers = [BoundStoreClient.from_handle(store.handle) for _ in range(2)]
        errors: list[str] = []
        stop = threading.Event()

        def read_loop():
            reader = store.reader()
            while not stop.is_set():
                for i in range(num_keys):
                    got = reader.get(_key(i))
                    if got is None:
                        continue
                    want = expected(i)
                    if not (
                        np.array_equal(got[0], want)
                        and np.array_equal(got[1], want + 1.0)
                    ):
                        errors.append(f"torn read for key {i}")
                        return

        threads = [threading.Thread(target=read_loop) for _ in range(4)]
        for thread in threads:
            thread.start()
        for i in range(num_keys):
            writers[i % 2].put(_key(i), expected(i), expected(i) + 1.0)
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors, errors
        # after the dust settles every key resolves consistently
        reader = store.reader()
        served = 0
        for i in range(num_keys):
            got = reader.get(_key(i))
            if got is not None:
                served += 1
                np.testing.assert_array_equal(got[0], expected(i))
        assert served == sum(w.publishes for w in writers)


def test_concurrent_worker_publishes_stay_bit_identical(
    database, batch, serial_snapshot
):
    """Four workers publish into one store while serving one batch.

    The contiguous chunking spreads the six distinct query objects over all
    workers, so publishes race reads in real processes; results must still
    match the serial path bit for bit.
    """
    with QueryService(
        QueryEngine(database), ExecutorConfig(workers=4, chunking="contiguous")
    ) as service:
        assert service.shared_bounds
        for _ in range(3):
            results = service.evaluate_many(batch)
            assert _snapshot(results) == serial_snapshot


# --------------------------------------------------------------------- #
# the tiered cache
# --------------------------------------------------------------------- #
def test_second_context_is_served_from_the_store(database, batch, serial_snapshot):
    with SharedBoundStore() as store:
        first = QueryEngine(database)
        first.context.attach_shared_store(BoundStoreClient.from_handle(store.handle))
        assert _snapshot(first.evaluate_many(batch)) == serial_snapshot
        stats = first.context.stats()
        assert stats["shared_store"] and stats["shared_publishes"] > 0

        second = QueryEngine(database)
        second.context.attach_shared_store(BoundStoreClient.from_handle(store.handle))
        assert _snapshot(second.evaluate_many(batch)) == serial_snapshot
        stats = second.context.stats()
        assert stats["shared_hits"] > 0
        assert stats["shared_misses"] == 0 and stats["shared_publishes"] == 0


def test_tier_counters_reach_iteration_stats(database):
    with SharedBoundStore() as store:
        warm = QueryEngine(database)
        warm.context.attach_shared_store(BoundStoreClient.from_handle(store.handle))
        warm.domination_count(database[3], database[9], max_iterations=3)

        cold = QueryEngine(database)
        cold.context.attach_shared_store(BoundStoreClient.from_handle(store.handle))
        result = cold.domination_count(database[3], database[9], max_iterations=3)
        refine_stats = result.iterations[1:]
        assert sum(stat.shared_hits for stat in refine_stats) > 0
        assert all(stat.shared_publishes == 0 for stat in refine_stats)


def test_cache_without_store_behaves_like_before(database):
    engine = QueryEngine(database)
    cache = engine.context.pair_bounds_cache
    assert isinstance(cache, TieredPairBoundsCache)
    engine.knn(database[2], k=3, tau=0.5, max_iterations=3)
    stats = engine.context.stats()
    assert not stats["shared_store"]
    assert stats["shared_hits"] == stats["shared_misses"] == 0
    assert stats["pair_bounds_misses"] > 0


def test_full_store_falls_back_to_local_memoisation(database, batch, serial_snapshot):
    # a store too small for even one column: every publish is rejected,
    # every lookup misses, and results are untouched
    with SharedBoundStore(num_slots=64, num_segments=1, segment_bytes=4096) as store:
        engine = QueryEngine(database)
        engine.context.attach_shared_store(BoundStoreClient.from_handle(store.handle))
        assert _snapshot(engine.evaluate_many(batch)) == serial_snapshot
        stats = engine.context.stats()
        assert stats["shared_hits"] == 0
        assert stats["pair_bounds_misses"] > 0


# --------------------------------------------------------------------- #
# worker-affine dispatch and adaptive chunking
# --------------------------------------------------------------------- #
def test_affine_partition_covers_each_request_once(batch):
    chunks, lanes = affine_partition(batch, workers=3)
    assert len(chunks) == len(lanes)
    covered = sorted(index for chunk in chunks for index in chunk)
    assert covered == list(range(len(batch)))
    assert all(0 <= lane < 3 for lane in lanes)


def test_affine_lanes_are_stable_across_batches(batch):
    first = affine_partition(batch, workers=4)
    second = affine_partition(list(batch), workers=4)
    assert first == second
    # a shuffled follow-up batch still routes each request to the same lane
    reordered = list(reversed(batch))
    chunks, lanes = affine_partition(reordered, workers=4)
    lane_of = {}
    for chunk, lane in zip(chunks, lanes):
        for index in chunk:
            lane_of[id(reordered[index])] = lane
    for chunk, lane in zip(*first):
        for index in chunk:
            assert lane_of[id(batch[index])] == lane


def test_affinity_lane_matches_partition(batch):
    chunks, lanes = affine_partition(batch, workers=4)
    for chunk, lane in zip(chunks, lanes):
        for index in chunk:
            assert affinity_lane(batch[index].affinity_key(), 4) == lane


def test_affine_partition_validates_arguments(batch):
    with pytest.raises(ValueError):
        affine_partition(batch, workers=0)
    with pytest.raises(ValueError):
        affine_partition(batch, workers=2, chunk_size=0)
    assert affine_partition([], workers=2) == ([], [])


def test_worker_pool_pins_chunks_to_lanes(database, batch):
    engine = QueryEngine(database)
    with WorkerPool(engine, workers=2) as pool:
        pid_of_lane: dict[int, set] = {0: set(), 1: set()}
        for round_ in range(2):
            futures = [
                pool.submit_chunk(lane, [batch[lane]], lane=lane) for lane in (0, 1)
            ]
            for lane, future in zip((0, 1), futures):
                _, _, stats = future.result()
                pid_of_lane[lane].add(stats.pid)
        assert len(pid_of_lane[0]) == 1  # same worker served the lane twice
        assert len(pid_of_lane[1]) == 1
        assert pid_of_lane[0] != pid_of_lane[1]


def test_adaptive_chunk_size_resolution():
    assert adaptive_chunk_size(10, 4, None) is None
    assert adaptive_chunk_size(10, 4, 0.0) is None
    assert adaptive_chunk_size(0, 4, 0.1) is None
    # expensive requests split all the way down
    assert adaptive_chunk_size(10, 4, 10.0) == 1
    # cheap requests batch up, capped at an even split across workers
    assert adaptive_chunk_size(10, 4, 1e-6) == 3
    assert adaptive_chunk_size(100, 4, 0.01) == 20


def test_service_adapts_chunk_size_from_history(database, batch, serial_snapshot):
    config = ExecutorConfig(workers=2, chunk_size="adaptive", chunking="contiguous")
    with QueryService(QueryEngine(database), config) as service:
        assert service.adaptive_chunk_size(10) is None  # no history yet
        assert _snapshot(service.evaluate_many(batch)) == serial_snapshot
        assert service.last_batch_report.chunk_size is None
        assert service.observed_request_seconds is not None
        assert service.observed_request_seconds > 0
        resolved = service.adaptive_chunk_size(len(batch))
        assert resolved is None or resolved >= 1
        assert _snapshot(service.evaluate_many(batch)) == serial_snapshot
        # the report records what the sentinel resolved to this batch
        assert service.last_batch_report.chunk_size == resolved
        # under lane-pinned affinity dispatch the sentinel is a no-op:
        # splitting a pinned bucket cannot rebalance work across lanes
        assert _snapshot(
            service.evaluate_many(batch, chunking="affinity")
        ) == serial_snapshot
        assert service.last_batch_report.chunk_size is None


def test_bound_store_released_on_close(database, batch):
    service = QueryService(QueryEngine(database), ExecutorConfig(workers=1))
    assert service.shared_bounds
    service.evaluate_many(batch)
    service.close()
    # the closed service reports the store as gone instead of crashing
    assert not service.shared_bounds
    assert service.bound_store_stats() is None


def test_affine_dispatch_keeps_index_queries_on_warm_caches(database):
    """Database-index requests pin to one lane and hit worker-local caches.

    Unlike ad-hoc query objects (whose identity changes with every pickled
    copy), an index request resolves to the same object in the worker on
    every batch — so with affine dispatch batch 2 must be served entirely
    from the worker's local memo, never recomputed nor fetched remotely.
    """
    requests = [KNNQuery(7, k=3, tau=0.5, max_iterations=4)]
    with QueryService(
        QueryEngine(database), ExecutorConfig(workers=2, chunking="affinity")
    ) as service:
        first = _snapshot(service.evaluate_many(requests))
        report_one = service.last_batch_report
        assert report_one.pair_bounds_misses > 0
        second = _snapshot(service.evaluate_many(requests))
        report_two = service.last_batch_report
        assert second == first
        assert report_two.pair_bounds_misses == 0
        assert report_two.pair_bounds_hits > 0
        assert report_two.worker_pids == report_one.worker_pids


# --------------------------------------------------------------------- #
# batch report surface
# --------------------------------------------------------------------- #
def test_batch_report_shared_counters_and_str(database, batch, serial_snapshot):
    with QueryService(
        QueryEngine(database), ExecutorConfig(workers=2, chunking="contiguous")
    ) as service:
        assert _snapshot(service.evaluate_many(batch)) == serial_snapshot
        warmup = service.last_batch_report
        assert warmup.shared_publishes > 0
        assert _snapshot(service.evaluate_many(batch)) == serial_snapshot
        repeat = service.last_batch_report
        assert repeat.shared_hits > 0
        assert repeat.shared_hit_rate > 0.5
        summaries = repeat.worker_cache_summaries
        assert set(summaries) == set(repeat.worker_pids)
        assert sum(s["shared_hits"] for s in summaries.values()) == repeat.shared_hits
        text = str(repeat)
        assert "shared" in text and "local" in text and "workers=2" in text
        as_dict = repeat.to_dict()
        assert as_dict["shared_hits"] == repeat.shared_hits
        assert as_dict["shared_hit_rate"] == repeat.shared_hit_rate


# --------------------------------------------------------------------- #
# acceptance: repeated batches, workers=1/2/4, with and without the store
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_repeated_batches_hit_store_and_stay_identical(
    database, batch, serial_snapshot, workers
):
    with QueryService(
        QueryEngine(database), ExecutorConfig(workers=workers)
    ) as service:
        assert service.shared_bounds
        for round_ in range(3):
            assert _snapshot(service.evaluate_many(batch)) == serial_snapshot
            report = service.last_batch_report
            if round_ == 0:
                assert report.shared_publishes > 0
            else:
                # batch 2+: the duplicate work is served, not recomputed
                assert report.shared_hit_rate >= 0.5
        stats = service.bound_store_stats()
        assert stats["filled_slots"] > 0


@pytest.mark.parametrize("claims", [True, False], ids=["claims", "no-claims"])
def test_cold_batch_identical_with_and_without_claims(
    database, batch, serial_snapshot, claims
):
    with QueryService(
        QueryEngine(database),
        ExecutorConfig(workers=4, chunking="contiguous"),
        store_claims=claims,
    ) as service:
        assert _snapshot(service.evaluate_many(batch + batch)) == (
            serial_snapshot + serial_snapshot
        )


# --------------------------------------------------------------------- #
# claim leases: in-flight computation markers
# --------------------------------------------------------------------- #
def _forge_claim(store, key: bytes, pid: int, age_seconds: float) -> None:
    """Plant a claim entry as if ``pid`` acquired ``key`` ``age`` ago."""
    import time

    from repro.engine.boundstore import (
        _CLAIM_BYTES,
        _HEADER_BYTES,
        _SLOT_BYTES,
        _fingerprint,
    )

    handle = store.handle
    fingerprint = _fingerprint(key)
    offset = (
        _HEADER_BYTES
        + handle.num_slots * _SLOT_BYTES
        + _CLAIM_BYTES * (fingerprint % handle.num_claims)
    )
    struct.pack_into(
        "<QIId", store._shm.buf, offset, fingerprint, pid, 0,
        time.monotonic() - age_seconds,
    )


def test_claims_disabled_store_fails_open():
    with SharedBoundStore(num_slots=256, num_segments=1, num_claims=0) as store:
        client = BoundStoreClient.from_handle(store.handle)
        assert not client.claims_enabled
        assert client.claim(_key(0)) == "acquired"
        assert not client.release(_key(0))


def test_claim_acquire_refresh_release_cycle():
    with SharedBoundStore(num_slots=256, num_segments=1, num_claims=64) as store:
        client = BoundStoreClient.from_handle(store.handle)
        assert client.claims_enabled
        assert client.claim(_key(1)) == "acquired"
        assert store.stats()["active_claims"] == 1
        # re-claiming our own key refreshes the lease, never conflicts
        assert client.claim(_key(1)) == "acquired"
        assert client.claim_acquires == 2 and client.claim_conflicts == 0
        assert client.release(_key(1))
        assert store.stats()["active_claims"] == 0
        # release is idempotent and safe for never-claimed keys
        assert not client.release(_key(1))
        assert not client.release(_key(2))


def test_claim_saturated_window_fails_open():
    with SharedBoundStore(num_slots=256, num_segments=1, num_claims=8) as store:
        client = BoundStoreClient.from_handle(store.handle)
        for i in range(8):
            assert client.claim(_key(i)) == "acquired"
        assert store.stats()["active_claims"] == 8
        # no free entry and no matching fingerprint left: fail open — the
        # publish-time duplicate check keeps correctness, this only risks
        # duplicate compute (exactly the pre-claims behaviour)
        assert client.claim(_key(99)) == "acquired"
        assert store.stats()["active_claims"] == 8


def test_claim_of_dead_holder_is_stolen():
    # a real (but already-exited) child pid: its claim is immediately
    # stealable, no lease wait needed
    child = multiprocessing.Process(target=int)
    child.start()
    dead_pid = child.pid
    child.join()
    with SharedBoundStore(num_slots=256, num_segments=1, num_claims=64) as store:
        client = BoundStoreClient.from_handle(store.handle)
        _forge_claim(store, _key(3), dead_pid, age_seconds=0.0)
        assert client.claim(_key(3)) == "stolen"
        assert client.claim_steals == 1
        # the steal rewrote the entry to us: releasable as our own
        assert client.release(_key(3))


def test_claim_of_expired_lease_is_stolen():
    # pid 1 is always alive, so only the lease age can justify the steal
    with SharedBoundStore(num_slots=256, num_segments=1, num_claims=64) as store:
        client = BoundStoreClient.from_handle(store.handle)
        _forge_claim(store, _key(4), pid=1, age_seconds=10 * client.lease_seconds)
        assert client.claim(_key(4)) == "stolen"
        # a *fresh* lease of the same live holder is respected
        _forge_claim(store, _key(5), pid=1, age_seconds=0.0)
        assert client.claim(_key(5)) == "held"
        assert client.claim_conflicts == 1


def test_wait_for_serves_published_column_or_times_out():
    with SharedBoundStore(num_slots=256, num_segments=1) as store:
        client = BoundStoreClient.from_handle(store.handle)
        assert client.wait_for(_key(6), budget=0.01) is None
        column = np.linspace(0.0, 1.0, 5)
        assert client.put(_key(6), column, column + 1.0)
        got = client.wait_for(_key(6), budget=0.01)
        assert got is not None
        np.testing.assert_array_equal(got[0], column)
        # polling must not inflate the shared-miss counter (only real
        # lookups on the cache read path count)
        assert client.misses == 0


# --------------------------------------------------------------------- #
# generation-based segment recycling
# --------------------------------------------------------------------- #
def test_reclaim_invalidates_published_columns():
    with SharedBoundStore(num_slots=256, num_segments=1) as store:
        writer = BoundStoreClient.from_handle(store.handle)
        column = np.arange(6.0)
        assert writer.put(_key(7), column, column)
        store.reclaim_segment(0)
        # the slot word still carries the old generation: the read-side
        # check rejects it as stale — a miss, never corruption
        assert writer.get(_key(7)) is None
        assert writer.corruptions == 0 and not writer.demoted
        assert store.stats()["segment_generations"] == [1]
        assert store.reclaim_count == 1
        # the recycled space is immediately publishable again
        assert writer.put(_key(8), column, column)
        np.testing.assert_array_equal(writer.get(_key(8))[0], column)


def test_full_latch_resets_on_reclaim():
    # the satellite regression: a client that latched read-only on a full
    # store must resume publishing once the owner reclaims a segment —
    # pre-fix the latch was permanent for the client's lifetime
    with SharedBoundStore(num_slots=64, num_segments=1, segment_bytes=4096) as store:
        writer = BoundStoreClient.from_handle(store.handle)
        tiny = np.ones(1)
        i = 0
        while writer.writable and i < 2000:
            writer.put(_key(i), tiny, tiny)
            i += 1
        assert not writer.writable
        assert writer.rejected > 0
        assert store.reclaim_round_robin() == 0
        assert writer.writable
        assert writer.put(_key(5000), tiny, tiny)
        np.testing.assert_array_equal(writer.get(_key(5000))[0], tiny)


def test_reclaim_round_robin_cycles_claimed_segments():
    with SharedBoundStore(num_slots=256, num_segments=3) as store:
        assert store.reclaim_round_robin() is None  # nothing claimed yet
        BoundStoreClient.from_handle(store.handle)
        BoundStoreClient.from_handle(store.handle)
        assert [store.reclaim_round_robin() for _ in range(3)] == [0, 1, 0]
        assert store.reclaim_count == 3


def test_reclaim_stale_retires_superseded_generations():
    def pair_key(i: int, gen: int) -> bytes:
        return encode_stable_key((
            "pb1", "round_robin",
            (("db", i, gen), 2), (("db", i + 1, gen), 2),
            (("pickle", "q"), 1), (2.0, "optimal"),
        ))

    def current(identity) -> bool:
        return identity[0] != "db" or identity[2] == 1

    column = np.ones(3)
    with SharedBoundStore(num_slots=256, num_segments=2) as store:
        stale_writer = BoundStoreClient.from_handle(store.handle)
        fresh_writer = BoundStoreClient.from_handle(store.handle)
        for i in range(4):
            assert stale_writer.put(pair_key(i, gen=0), column, column)
        for i in range(4):
            assert fresh_writer.put(pair_key(i, gen=1), column, column)
        # segment 0 is 100% superseded, segment 1 is 100% current
        assert store.reclaim_stale(current) == [0]
        assert stale_writer.get(pair_key(0, gen=0)) is None
        assert fresh_writer.get(pair_key(0, gen=1)) is not None
        # below the threshold nothing is reclaimed (3 of 4 still current)
        assert stale_writer.put(pair_key(10, gen=1), column, column)
        assert stale_writer.put(pair_key(11, gen=1), column, column)
        assert stale_writer.put(pair_key(12, gen=1), column, column)
        assert stale_writer.put(pair_key(13, gen=0), column, column)
        assert store.reclaim_stale(current) == []


# --------------------------------------------------------------------- #
# warm-start persistence: disk files and named blocks
# --------------------------------------------------------------------- #
DIGEST = b"digest-one"
CONFIG = b"config-one"


def _file_store(path, **overrides):
    kwargs = dict(
        num_slots=256, num_segments=2, path=path,
        content_digest=DIGEST, config_fingerprint=CONFIG,
    )
    kwargs.update(overrides)
    return SharedBoundStore(**kwargs)


def test_file_store_round_trips_across_restart(tmp_path):
    path = str(tmp_path / "bounds.store")
    lower = np.linspace(0.0, 1.0, 9)
    upper = lower + 0.5
    store = _file_store(path)
    try:
        assert not store.warm_started and store.rejected_store is None
        writer = BoundStoreClient.from_handle(store.handle)
        assert writer.put(_key(1), lower, upper)
        store.reclaim_segment(1)  # the reclaim counter must persist too
    finally:
        store.close()
    second = _file_store(path)
    try:
        assert second.warm_started and second.rejected_store is None
        got = second.reader().get(_key(1))
        assert got is not None
        np.testing.assert_array_equal(got[0], lower)
        np.testing.assert_array_equal(got[1], upper)
        assert second.reclaim_count == 1
        # a fresh incarnation re-claims segments from zero and appends past
        # the warm cursor: old and new columns coexist
        writer = BoundStoreClient.from_handle(second.handle)
        assert writer.put(_key(2), upper, lower)
        reader = second.reader()
        assert reader.get(_key(1)) is not None
        assert reader.get(_key(2)) is not None
        assert second.stats()["warm_started"] is True
    finally:
        second.destroy()
    assert not os.path.exists(path)


def test_warm_start_clears_stale_claims(tmp_path):
    path = str(tmp_path / "bounds.store")
    store = _file_store(path)
    BoundStoreClient.from_handle(store.handle).claim(_key(1))
    assert store.stats()["active_claims"] == 1
    store.close()
    # the previous incarnation died without releasing: the next one must
    # not inherit in-flight claims (their pids are meaningless now)
    second = _file_store(path)
    try:
        assert second.warm_started
        assert second.stats()["active_claims"] == 0
    finally:
        second.destroy()


def _truncate(path: str, size: int) -> None:
    with open(path, "r+b") as backing:
        backing.truncate(size)


def _scribble(path: str, offset: int, payload: bytes) -> None:
    with open(path, "r+b") as backing:
        backing.seek(offset)
        backing.write(payload)


def _bogus_cursor(path: str) -> None:
    from repro.engine.boundstore import _HEADER_BYTES, _SLOT_BYTES

    segments_offset = _HEADER_BYTES + 256 * _SLOT_BYTES  # num_claims=0
    _scribble(path, segments_offset, struct.pack("<Q", 7))


@pytest.mark.parametrize(
    "corrupt, reason",
    [
        (lambda path: _truncate(path, 0), "truncated-header"),
        (lambda path: _truncate(path, 32), "truncated-header"),
        (lambda path: _scribble(path, 0, b"JUNK"), "bad-magic"),
        (lambda path: _scribble(path, 4, struct.pack("<I", 99)), "version-mismatch"),
        (lambda path: _scribble(path, 33, b"\xff"), "corrupt-header"),
        (lambda path: _truncate(path, 4096), "truncated"),
        (_bogus_cursor, "corrupt-segment-cursor"),
    ],
    ids=[
        "empty", "truncated-header", "bad-magic", "version-mismatch",
        "corrupt-header", "truncated", "corrupt-segment-cursor",
    ],
)
def test_validation_ladder_rejects_and_rebuilds(tmp_path, corrupt, reason):
    path = str(tmp_path / "bounds.store")
    column = np.arange(4.0)
    store = _file_store(path, num_claims=0)
    try:
        assert BoundStoreClient.from_handle(store.handle).put(
            _key(1), column, column
        )
    finally:
        store.close()
    corrupt(path)
    reopened = _file_store(path, num_claims=0)
    try:
        # the damaged backing is detected, reported and never served
        assert not reopened.warm_started
        assert reopened.rejected_store == reason
        assert reopened.reader().get(_key(1)) is None
        # the rebuilt store is fully functional
        writer = BoundStoreClient.from_handle(reopened.handle)
        assert writer.put(_key(2), column, column)
        np.testing.assert_array_equal(reopened.reader().get(_key(2))[0], column)
    finally:
        reopened.destroy()


def test_content_handshake_rejects_foreign_stores(tmp_path):
    path = str(tmp_path / "bounds.store")
    _file_store(path).close()
    wrong_digest = _file_store(path, content_digest=b"digest-two")
    try:
        assert not wrong_digest.warm_started
        assert wrong_digest.rejected_store == "digest-mismatch"
    finally:
        wrong_digest.close()
    # the mismatch rebuilt the backing with the new digest; a matching
    # reopen now warm-starts, a mismatched config still rejects
    wrong_config = _file_store(
        path, content_digest=b"digest-two", config_fingerprint=b"config-two"
    )
    try:
        assert not wrong_config.warm_started
        assert wrong_config.rejected_store == "config-mismatch"
    finally:
        wrong_config.destroy()


def test_named_store_persists_until_destroyed():
    name = f"repro_bs_warmtest_{os.getpid()}"
    column = np.linspace(2.0, 3.0, 7)
    store = SharedBoundStore(
        num_slots=256, num_segments=1, name=name,
        content_digest=DIGEST, config_fingerprint=CONFIG,
    )
    try:
        assert store.persistent and not store.warm_started
        assert BoundStoreClient.from_handle(store.handle).put(
            _key(9), column, column
        )
    finally:
        store.close()  # detaches only: the named block stays linked
    second = SharedBoundStore(
        num_slots=256, num_segments=1, name=name,
        content_digest=DIGEST, config_fingerprint=CONFIG,
    )
    try:
        assert second.warm_started
        np.testing.assert_array_equal(second.reader().get(_key(9))[0], column)
    finally:
        second.destroy()  # unlinks: the next open starts cold
    third = SharedBoundStore(
        num_slots=256, num_segments=1, name=name,
        content_digest=DIGEST, config_fingerprint=CONFIG,
    )
    try:
        assert not third.warm_started and third.rejected_store is None
    finally:
        third.destroy()


def test_database_digest_tracks_content(database):
    same = uniform_rectangle_database(num_objects=60, max_extent=0.05, seed=0)
    other = uniform_rectangle_database(num_objects=60, max_extent=0.05, seed=1)
    assert database_digest(database) == database_digest(same)
    assert database_digest(database) != database_digest(other)
    assert len(database_digest(database)) == 16


def test_config_fingerprint_tracks_axis_policy():
    assert config_fingerprint("round_robin") == config_fingerprint("round_robin")
    assert config_fingerprint("round_robin") != config_fingerprint("optimal")
    assert config_fingerprint("round_robin") != config_fingerprint(
        "round_robin", key_schema="pb2"
    )


# --------------------------------------------------------------------- #
# saturation under a rotating query population (satellite)
# --------------------------------------------------------------------- #
def test_reclaim_restores_sharing_under_rotating_queries(database):
    """A rotating population saturates a tiny index; reclaim keeps it live.

    Without reclamation every client latches read-only once the 64-slot
    index fills, so late windows never see a shared hit again.  With the
    service's pressure-driven round-robin reclaim the store keeps retiring
    old columns and late windows share again — and both configurations stay
    bit-identical to the serial path throughout.
    """
    rng = np.random.default_rng(23)
    rotating = [
        random_reference_object(extent=0.05, rng=rng, label=f"rot-{i}")
        for i in range(9)
    ]
    windows = [
        [KNNQuery(q, k=3, tau=0.5, max_iterations=4) for q in rotating[i : i + 3]]
        for i in range(0, 9, 3)
    ]
    serial = [_snapshot(QueryEngine(database).evaluate_many(w)) for w in windows]
    options = {"num_slots": 64, "segment_bytes": 1 << 16}
    last_window_hits = {}
    reclaims = {}
    for reclaim in (True, False):
        with QueryService(
            QueryEngine(database),
            ExecutorConfig(workers=2, chunking="contiguous"),
            store_reclaim=reclaim,
            bounds_store_options=options,
        ) as service:
            hits = 0
            for window, expected in zip(windows, serial):
                for _ in range(3):
                    assert _snapshot(service.evaluate_many(window)) == expected
                    if window is windows[-1]:
                        hits += service.last_batch_report.shared_hits
            last_window_hits[reclaim] = hits
            reclaims[reclaim] = service.bound_store_stats()["reclaim_count"]
    assert reclaims[True] > 0
    assert last_window_hits[True] > 0
    assert reclaims[False] == 0
    assert last_window_hits[False] == 0


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_repeated_batches_identical_without_shared_memory(
    database, batch, serial_snapshot, workers, monkeypatch
):
    monkeypatch.setenv("REPRO_DISABLE_SHARED_MEMORY", "1")
    with QueryService(
        QueryEngine(database), ExecutorConfig(workers=workers)
    ) as service:
        assert not service.shared_bounds
        assert service.bound_store_stats() is None
        for _ in range(3):
            assert _snapshot(service.evaluate_many(batch)) == serial_snapshot
            assert service.last_batch_report.shared_hits == 0

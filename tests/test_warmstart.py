"""Warm start: a restarted service reuses the columns its lanes persisted.

The contract under test: a :class:`QueryService` given a warm-start
directory (``bounds_store_path``) has every worker lane append the columns
it computes to its own file there, and every lane of the *next*
incarnation loads all of those files through a handshake — database digest
plus axis/config fingerprint — so the first post-restart batch is served
warm (at least half of its local-memo misses come from the files) and stays
bit-identical to the serial path.

The hard-kill test is the honest version: a child process runs a real
service, reports its results, then SIGKILLs itself — no ``close()``,
workers orphaned.  The parent reaps the orphans, restarts the service over
the same directory and checks the recovery contract.  Truncated, scribbled
and foreign files must be detected, reported and rebuilt — never served:
the byte-level tests cut and flip every byte of a small file of real
columns and require the loader to yield exactly the records before the
damage.  The restart contract holds for every request kind and across a
change of worker count; a lane respawned after a crash starts from its
predecessor's appends, and one respawned after a mutation persists only
columns of the snapshot the service was built over; and inside one process
the tiered memo reads through to the file, appends only cold columns and
keeps columns that name a mutated object local.  The file format itself is
covered by ``tests/test_boundstore.py``.

Honours ``REPRO_TEST_START_METHOD`` like the chaos suite, so CI can
matrix fork/spawn over the same tests.
"""

from __future__ import annotations

import ast
import json
import multiprocessing
import os
import shutil
import signal
import time

import numpy as np
import pytest

from repro.datasets import random_reference_object, uniform_rectangle_database
from repro.engine import (
    CacheStats,
    DominationCountQuery,
    ExecutorConfig,
    InverseRankingQuery,
    KNNQuery,
    QueryEngine,
    QueryService,
    RangeQuery,
    RankingQuery,
    RKNNQuery,
)
from repro.engine.boundstore import (
    WarmStartFile,
    config_fingerprint,
    database_digest,
    inspect_warm_start,
    lane_file,
    read_warm_file,
)
from repro.geometry import Rectangle
from repro.testing.faults import (
    ANY_LANE,
    FaultPlan,
    assert_no_leaked_resources,
    flip_store_byte,
    inject_faults,
    kill_worker,
    snapshot_resources,
    truncate_store_file,
)
from repro.uncertain import BoxUniformObject, Update

START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or None

#: Bytes of the file header (magic, version, digest, fingerprint).
HEADER_BYTES = 40


@pytest.fixture(autouse=True)
def no_leaked_resources():
    """Fail any test that orphans a worker or leaves a shm block linked."""
    before = snapshot_resources()
    yield
    assert_no_leaked_resources(before)


def _workload():
    """The deterministic database + batch both incarnations rebuild."""
    database = uniform_rectangle_database(num_objects=40, max_extent=0.05, seed=0)
    rng = np.random.default_rng(5)
    queries = [
        random_reference_object(extent=0.05, rng=rng, label=f"warm-{i}")
        for i in range(5)
    ]
    batch = [KNNQuery(q, k=3, tau=0.5, max_iterations=4) for q in queries]
    return database, batch


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


def _json_snapshot(results) -> list:
    """A snapshot normalised through JSON, for cross-process comparison."""
    return json.loads(json.dumps(_snapshot(results), default=float))


def _service(database, workers=2, axis_policy="round_robin", **kwargs):
    return QueryService(
        QueryEngine(database, axis_policy=axis_policy),
        ExecutorConfig(workers=workers, start_method=START_METHOD),
        **kwargs,
    )


def _lane_files(directory) -> list[str]:
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith(".warm")
    )


# --------------------------------------------------------------------- #
# restart contract
# --------------------------------------------------------------------- #
def _serve_and_die(path: str, out_path: str) -> None:
    """Child: run one batch with a warm-start directory, then crash hard."""
    database, batch = _workload()
    service = _service(database, bounds_store_path=path)
    results = service.evaluate_many(batch)
    payload = {
        "snapshot": _json_snapshot(results),
        # every lane, not only those that ran a chunk: lanes start eagerly
        "workers": [service._pool.probe(lane)["pid"] for lane in range(service.workers)],
    }
    with open(out_path + ".tmp", "w") as out:
        json.dump(payload, out)
        out.flush()
        os.fsync(out.fileno())
    os.rename(out_path + ".tmp", out_path)  # atomic: readable iff complete
    # no close(): the crash leaves orphaned workers behind, and only the
    # lanes' unbuffered appends carry the columns to the successor
    os.kill(os.getpid(), signal.SIGKILL)


def test_service_warm_starts_bit_identical_after_hard_kill(tmp_path):
    path = str(tmp_path / "warm")
    out_path = str(tmp_path / "first-run.json")
    context = multiprocessing.get_context(START_METHOD)
    child = context.Process(target=_serve_and_die, args=(path, out_path))
    child.start()
    # wait on the (atomically renamed) result file, not on join(): the
    # orphaned pool workers inherit the child's sentinel pipe, so join()
    # cannot observe the SIGKILL until they are dead too
    deadline = time.monotonic() + 240.0
    while not os.path.exists(out_path) and time.monotonic() < deadline:
        assert child.exitcode is None or child.exitcode == -signal.SIGKILL
        time.sleep(0.05)
    with open(out_path) as recorded:
        payload = json.load(recorded)
    # the SIGKILL orphaned the child's pool workers: reap them
    for pid in payload["workers"]:
        kill_worker(pid)
    child.join(timeout=30)
    assert child.exitcode == -signal.SIGKILL
    database, batch = _workload()
    with _service(database, bounds_store_path=path) as service:
        assert service.store_warm_started
        stats = service.bound_store_stats()
        assert stats["warm_started"] is True
        assert stats["rejected_store"] is None
        assert stats["records"] > 0
        results = service.evaluate_many(batch)
        # bit-identical across the crash boundary...
        assert _json_snapshot(results) == payload["snapshot"]
        # ...and served warm on the very first post-restart batch
        assert service.last_batch_report.shared_hit_rate >= 0.5


def test_orderly_restart_reuses_warm_start_files(tmp_path):
    path = str(tmp_path / "warm")
    database, batch = _workload()
    serial = _snapshot(QueryEngine(database).evaluate_many(batch))
    with _service(database, bounds_store_path=path) as service:
        assert not service.store_warm_started  # first incarnation is cold
        assert service.bound_store_stats()["records"] == 0
        # lanes spawn on first use, and affine dispatch may route the whole
        # batch to one of them: spawn both so each opens its file
        service.warm()
        assert _snapshot(service.evaluate_many(batch)) == serial
        assert service.last_batch_report.shared_publishes > 0
    assert len(_lane_files(path)) == 2  # one file per lane, kept by close()
    with _service(database, bounds_store_path=path) as service:
        assert service.store_warm_started
        assert service.bound_store_stats()["rejected_store"] is None
        assert _snapshot(service.evaluate_many(batch)) == serial
        report = service.last_batch_report
        assert report.shared_hit_rate >= 0.5
        assert report.shared_publishes == 0  # nothing new to persist
        assert "shared" in str(report) and "local" in str(report)
        summary = report.to_dict()
        assert summary["shared_hits"] == report.shared_hits > 0
        assert summary["shared_hit_rate"] == report.shared_hit_rate


def test_truncated_files_are_rejected_and_rebuilt(tmp_path):
    path = str(tmp_path / "warm")
    database, batch = _workload()
    serial = _snapshot(QueryEngine(database).evaluate_many(batch))
    with _service(database, bounds_store_path=path) as service:
        assert _snapshot(service.evaluate_many(batch)) == serial
    for file in _lane_files(path):
        assert truncate_store_file(file, 20) == 20  # not even a full header
    with _service(database, bounds_store_path=path) as service:
        assert not service.store_warm_started
        assert service.bound_store_stats()["rejected_store"] == "truncated-header"
        # the torn files were discarded, never served; results are unaffected
        assert _snapshot(service.evaluate_many(batch)) == serial
        assert service.last_batch_report.shared_hits == 0
        assert service.last_batch_report.shared_publishes > 0
    # the rebuilt files are valid again for the incarnation after that
    with _service(database, bounds_store_path=path) as service:
        assert service.store_warm_started
        assert service.bound_store_stats()["rejected_store"] is None


def test_changed_database_digest_rejects_stale_files(tmp_path):
    path = str(tmp_path / "warm")
    database, batch = _workload()
    with _service(database, bounds_store_path=path) as service:
        service.evaluate_many(batch)
    # same directory, different data: the handshake must refuse the stale
    # columns (they were computed against another database's geometry)
    other = uniform_rectangle_database(num_objects=40, max_extent=0.05, seed=9)
    serial = _snapshot(QueryEngine(other).evaluate_many(batch))
    with _service(other, bounds_store_path=path) as service:
        assert not service.store_warm_started
        assert service.bound_store_stats()["rejected_store"] == "digest-mismatch"
        assert _snapshot(service.evaluate_many(batch)) == serial
        assert service.last_batch_report.shared_hits == 0


def _box(center) -> BoxUniformObject:
    return BoxUniformObject(
        Rectangle.from_center_extent(np.asarray(center, dtype=float), 0.05)
    )


def test_columns_of_later_generations_are_never_persisted(tmp_path):
    # two incarnations start from the same snapshot and apply *different*
    # updates, which the generation clock numbers identically; a column of
    # the first incarnation's updated objects must not serve the second
    path = str(tmp_path / "warm")
    database, batch = _workload()
    rng = np.random.default_rng(17)
    positions = [int(p) for p in rng.choice(len(database), size=12, replace=False)]
    for seed in (1, 2):
        moves = np.random.default_rng(seed).uniform(0.1, 0.9, size=(12, 2))
        step = [Update(p, _box(m)) for p, m in zip(positions, moves)]
        expected = _snapshot(
            QueryEngine(database.apply(step)).evaluate_many(batch)
        )
        with _service(database, bounds_store_path=path) as service:
            service.apply(step)
            assert _snapshot(service.evaluate_many(batch)) == expected


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


def _result_snapshot(results) -> list:
    """:func:`_snapshot` for a batch of any request kinds."""
    snap = []
    for result in results:
        if hasattr(result, "matches"):
            snap.extend(_snapshot([result]))
        elif hasattr(result, "ranking"):
            snap.append(
                [
                    (e.index, e.expected_rank_lower, e.expected_rank_upper, e.iterations)
                    for e in result.ranking
                ]
            )
        else:
            bounds = getattr(result, "bounds", result)
            snap.append((bounds.lower.tolist(), bounds.upper.tolist()))
    return snap


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_restart_serves_every_request_kind_bit_identically(tmp_path, kind):
    path = str(tmp_path / "warm")
    database, knn_batch = _workload()
    batch = [_KINDS[kind](request.query) for request in knn_batch[:3]]
    serial = _result_snapshot(QueryEngine(database).evaluate_many(batch))
    with _service(database, bounds_store_path=path) as service:
        assert _result_snapshot(service.evaluate_many(batch)) == serial
        published = service.last_batch_report.shared_publishes
    with _service(database, bounds_store_path=path) as service:
        assert _result_snapshot(service.evaluate_many(batch)) == serial
        report = service.last_batch_report
        # every column the kind needs was persisted by the first incarnation
        assert report.shared_publishes == report.shared_misses == 0
        assert (report.shared_hits > 0) == (published > 0)


@pytest.mark.parametrize("writers, readers", [(1, 3), (3, 1), (2, 4), (4, 2)])
def test_restart_with_another_worker_count_loads_every_lane_file(
    tmp_path, writers, readers
):
    path = str(tmp_path / "warm")
    database, batch = _workload()
    serial = _snapshot(QueryEngine(database).evaluate_many(batch))
    with _service(database, workers=writers, bounds_store_path=path) as service:
        service.warm()
        assert _snapshot(service.evaluate_many(batch)) == serial
    assert len(_lane_files(path)) == writers
    with _service(database, workers=readers, bounds_store_path=path) as service:
        service.warm()
        assert service.bound_store_stats()["rejected_store"] is None
        assert _snapshot(service.evaluate_many(batch)) == serial
        report = service.last_batch_report
        # files of lanes the new pool does not have are loaded all the same
        assert report.shared_publishes == report.shared_misses == 0
        assert report.shared_hits > 0
    # lanes new to the directory added their own file; none was removed
    assert len(_lane_files(path)) == max(writers, readers)


def test_changed_axis_policy_rejects_stale_files(tmp_path):
    path = str(tmp_path / "warm")
    database, batch = _workload()
    with _service(database, bounds_store_path=path) as service:
        service.evaluate_many(batch)
    # same data, different split axes: every column's partitions differ
    serial = _snapshot(QueryEngine(database, axis_policy="widest").evaluate_many(batch))
    with _service(database, axis_policy="widest", bounds_store_path=path) as service:
        assert not service.store_warm_started
        assert service.bound_store_stats()["rejected_store"] == "config-mismatch"
        assert _snapshot(service.evaluate_many(batch)) == serial
        assert service.last_batch_report.shared_hits == 0


def test_a_missing_directory_is_created(tmp_path):
    path = tmp_path / "not" / "there" / "yet"
    database, batch = _workload()
    with _service(database, bounds_store_path=path) as service:
        assert service.bound_store_stats() == {
            "path": str(path),
            "warm_started": False,
            "rejected_store": None,
            "records": 0,
        }
        service.warm()
        service.evaluate_many(batch)
    assert len(_lane_files(str(path))) == 2


def test_a_lane_respawned_after_a_mutation_keeps_the_generation_bound(tmp_path):
    # a lane respawned after a mutation starts from the mutated snapshot,
    # but its file covers the snapshot the service was built over: columns
    # naming the updated objects stay local, so a second incarnation that
    # updates the same positions differently is still served bit-identically
    path = str(tmp_path / "warm")
    database, batch = _workload()
    rng = np.random.default_rng(17)
    positions = [int(p) for p in rng.choice(len(database), size=12, replace=False)]
    for seed in (1, 2):
        moves = np.random.default_rng(seed).uniform(0.1, 0.9, size=(12, 2))
        step = [Update(p, _box(m)) for p, m in zip(positions, moves)]
        expected = _snapshot(
            QueryEngine(database.apply(step)).evaluate_many(batch)
        )
        with _service(database, workers=1, bounds_store_path=path) as service:
            service.apply(step)
            kill_worker(service.probe_workers()["pid"])
            assert _snapshot(service.evaluate_many(batch)) == expected
            assert service.last_batch_report.worker_respawns == 1


def test_a_respawned_lane_reloads_its_predecessors_appends(tmp_path):
    # one lane, one request per batch (so one per chunk): the worker appends
    # the columns of the first two chunks, is SIGKILLed as it starts the
    # third, and its successor serves the repeated requests from the dead
    # worker's file
    path = str(tmp_path / "warm")
    database, batch = _workload()
    batch = batch[:2] + batch[:2]
    serial = _snapshot(QueryEngine(database).evaluate_many(batch))
    with inject_faults(FaultPlan(kill_lane=ANY_LANE, kill_after_chunks=2)):
        with _service(database, workers=1, bounds_store_path=path) as service:
            results, respawns, shared_hits = [], 0, 0
            for request in batch:
                results += service.evaluate_many([request])
                report = service.last_batch_report
                respawns += report.worker_respawns
                shared_hits += report.shared_hits
            assert _snapshot(results) == serial
            assert respawns >= 1
            assert shared_hits > 0
    _records, end, rejected = read_warm_file(
        lane_file(path, 0), database_digest(database), config_fingerprint("round_robin")
    )
    assert rejected is None and end == os.path.getsize(lane_file(path, 0))


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_repeated_batches_with_warm_start_stay_identical(tmp_path, workers):
    path = str(tmp_path / "warm")
    database, batch = _workload()
    serial = _snapshot(QueryEngine(database).evaluate_many(batch))
    with _service(database, workers=workers, bounds_store_path=path) as service:
        for round_ in range(3):
            assert _snapshot(service.evaluate_many(batch)) == serial
            report = service.last_batch_report
            if round_ == 0:
                assert report.shared_publishes > 0
            else:
                # affine dispatch brings each query back to the lane whose
                # memo holds its columns: nothing is recomputed or appended
                assert report.shared_publishes == 0
                assert report.pair_bounds_misses == 0
    stats = inspect_warm_start(
        path, database_digest(database), config_fingerprint("round_robin")
    )
    assert stats["rejected_store"] is None and stats["records"] > 0


@pytest.mark.parametrize("store", [True, False], ids=["store", "no-store"])
def test_cold_batch_identical_with_and_without_warm_start(
    tmp_path, store, span_lanes
):
    # four lanes spawn one after another and load each other's files while
    # those are still being appended to; results must not notice
    database, batch = _workload()
    batch = span_lanes(batch + batch, 4, len(database))
    serial = _snapshot(QueryEngine(database).evaluate_many(batch))
    path = str(tmp_path / "warm") if store else None
    with _service(database, workers=4, bounds_store_path=path) as service:
        results = service.evaluate_many(batch)
        assert _snapshot(results) == serial
        assert len(service.last_batch_report.worker_pids) == 4
        assert (service.last_batch_report.shared_publishes > 0) == store


# --------------------------------------------------------------------- #
# the file itself: handshake, counters, byte-level corruption
# --------------------------------------------------------------------- #
def _engine_with_file(database, directory, lane=0):
    engine = QueryEngine(database)
    warm = WarmStartFile(
        str(directory),
        lane,
        database_digest(database),
        config_fingerprint(engine.context.axis_policy),
    )
    engine.context.attach_warm_start(warm, max(database.generations()) + 1)
    return engine, warm


def test_file_counters_reach_iteration_stats(tmp_path):
    database, _batch = _workload()
    first, warm = _engine_with_file(database, tmp_path)
    first.domination_count(database[3], database[9], max_iterations=3)
    warm.close()
    second, warm = _engine_with_file(database, tmp_path, lane=1)
    result = second.domination_count(database[3], database[9], max_iterations=3)
    warm.close()
    refine_stats = result.iterations[1:]
    assert sum(stat.shared_hits for stat in refine_stats) > 0
    assert all(stat.shared_publishes == 0 for stat in refine_stats)


@pytest.mark.parametrize(
    "offset, payload, reason",
    [
        (0, b"JUNK", "bad-magic"),
        (4, b"\x63\x00\x00\x00", "version-mismatch"),
        (8, b"\xff", "digest-mismatch"),
        (24, b"\xff", "config-mismatch"),
    ],
)
def test_handshake_rejects_foreign_headers(tmp_path, offset, payload, reason):
    database, batch = _workload()
    engine, warm = _engine_with_file(database, tmp_path)
    engine.evaluate_many(batch[:1])
    warm.close()
    path = lane_file(str(tmp_path), 0)
    with open(path, "r+b") as handle:
        handle.seek(offset)
        handle.write(payload)
    digest = database_digest(database)
    config = config_fingerprint(engine.context.axis_policy)
    assert read_warm_file(path, digest, config) == ([], 0, reason)
    reopened = WarmStartFile(str(tmp_path), 0, digest, config)
    assert reopened.columns == {}
    reopened.close()
    assert os.path.getsize(path) == HEADER_BYTES  # rebuilt empty


@pytest.fixture(scope="module")
def small_file(tmp_path_factory):
    """A warm-start file holding the first six real columns of a workload."""
    database, batch = _workload()
    source = tmp_path_factory.mktemp("source")
    engine, warm = _engine_with_file(database, source)
    engine.evaluate_many(batch[:1])
    warm.close()
    digest = database_digest(database)
    config = config_fingerprint(engine.context.axis_policy)
    records, _end, _rejected = read_warm_file(lane_file(str(source), 0), digest, config)
    directory = tmp_path_factory.mktemp("small")
    small = WarmStartFile(str(directory), 0, digest, config)
    for key, column in records[:6]:
        assert small.append(key, column)
    small.close()
    path = lane_file(str(directory), 0)
    written, end, rejected = read_warm_file(path, digest, config)
    assert len(written) == 6 and end == os.path.getsize(path) and rejected is None
    ends = [HEADER_BYTES]
    for key, column in written:
        ends.append(ends[-1] + 12 + len(key) + 8 * column.size)
    return database, batch, path, digest, config, written, ends


def _damaged_copy(tmp_path, small_file, damage) -> str:
    """Copy the small file into a fresh directory and damage the copy."""
    path = small_file[2]
    directory = tmp_path / "damaged"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir()
    copy = lane_file(str(directory), 0)
    shutil.copyfile(path, copy)
    damage(copy)
    return str(directory)


def _assert_loads_prefix(directory, small_file, expected) -> None:
    """Open the damaged file as lane 0 does; check the prefix it serves."""
    _database, _batch, _path, digest, config, written, ends = small_file
    warm = WarmStartFile(directory, 0, digest, config)
    warm.close()
    assert list(warm.columns) == [key for key, _column in written[:expected]]
    for key, column in written[:expected]:
        assert np.array_equal(warm.columns[key], column)
    # the lane cut its own file back to the last whole record (or rebuilt it)
    assert os.path.getsize(lane_file(directory, 0)) == ends[expected]


def _records_before(ends, offset) -> int:
    """Records wholly before byte ``offset``."""
    return sum(1 for end in ends[1:] if end <= offset)


def test_loader_serves_a_prefix_after_truncation_at_every_offset(tmp_path, small_file):
    ends = small_file[-1]
    for offset in range(ends[-1] + 1):
        directory = _damaged_copy(
            tmp_path, small_file, lambda copy: truncate_store_file(copy, offset)
        )
        _assert_loads_prefix(directory, small_file, _records_before(ends, offset))


def test_loader_serves_a_prefix_after_flipping_any_byte(tmp_path, small_file):
    ends = small_file[-1]
    for offset in range(ends[-1]):
        directory = _damaged_copy(
            tmp_path, small_file, lambda copy: flip_store_byte(copy, offset)
        )
        # a damaged header rejects the file; a damaged record ends the prefix
        expected = 0 if offset < HEADER_BYTES else _records_before(ends, offset)
        _assert_loads_prefix(directory, small_file, expected)


def test_service_over_each_damaged_prefix_matches_cold_serial(tmp_path, small_file):
    # the loader yields exactly a prefix (tests above), so one damaged file
    # per prefix length covers every file a service can be handed
    database, batch, _path, _digest, _config, _written, ends = small_file
    serial = _snapshot(QueryEngine(database).evaluate_many(batch))
    # a cut inside the header, one inside each record, none at all
    cuts = [HEADER_BYTES - 1] + [end + 5 for end in ends[:-1]] + [ends[-1]]
    for cut in cuts:
        directory = _damaged_copy(
            tmp_path, small_file, lambda copy: truncate_store_file(copy, cut)
        )
        with _service(database, bounds_store_path=directory) as service:
            assert _snapshot(service.evaluate_many(batch)) == serial
            served = service.last_batch_report.shared_hits
        assert (served > 0) == (_records_before(ends, cut) > 0)


# --------------------------------------------------------------------- #
# the tiered memo inside one process
# --------------------------------------------------------------------- #
def test_a_context_without_a_file_keeps_a_plain_memo():
    database, _batch = _workload()
    engine = QueryEngine(database)
    assert type(engine.context.pair_bounds_cache) is CacheStats
    assert engine.context.warm_start is None
    engine.knn(database[2], k=3, tau=0.5, max_iterations=3)
    stats = engine.context.stats()
    assert stats["shared_hits"] == stats["shared_misses"] == 0
    assert stats["shared_publishes"] == 0
    assert stats["pair_bounds_misses"] > 0


def test_cold_columns_miss_the_file_and_are_appended(tmp_path):
    database, _batch = _workload()
    engine, warm = _engine_with_file(database, tmp_path)
    engine.domination_count(database[3], database[9], max_iterations=3)
    warm.close()
    stats = engine.context.stats()
    assert stats["shared_hits"] == 0
    assert stats["shared_misses"] >= stats["shared_publishes"] > 0
    records, _end, _rejected = read_warm_file(
        lane_file(str(tmp_path), 0),
        database_digest(database),
        config_fingerprint(engine.context.axis_policy),
    )
    assert len(records) == stats["shared_publishes"]
    engine.context.pair_bounds_cache.reset_counters()
    stats = engine.context.stats()
    assert stats["shared_hits"] == stats["shared_misses"] == 0
    assert stats["shared_publishes"] == 0


def test_a_second_context_is_served_from_the_file(tmp_path):
    database, batch = _workload()
    serial = _snapshot(QueryEngine(database).evaluate_many(batch))
    first, warm = _engine_with_file(database, tmp_path)
    assert _snapshot(first.evaluate_many(batch)) == serial
    warm.close()
    assert first.context.stats()["shared_publishes"] > 0
    second, warm = _engine_with_file(database, tmp_path, lane=1)
    assert _snapshot(second.evaluate_many(batch)) == serial
    warm.close()
    stats = second.context.stats()
    assert stats["shared_hits"] > 0
    assert stats["shared_misses"] == stats["shared_publishes"] == 0
    # nothing new to persist: the second lane's file is a bare header
    assert os.path.getsize(lane_file(str(tmp_path), 1)) == HEADER_BYTES


def test_a_cleared_memo_is_refilled_from_the_file(tmp_path):
    database, batch = _workload()
    serial = _snapshot(QueryEngine(database).evaluate_many(batch))
    engine, warm = _engine_with_file(database, tmp_path)
    assert _snapshot(engine.evaluate_many(batch)) == serial
    engine.context.clear()
    assert _snapshot(engine.evaluate_many(batch)) == serial
    warm.close()
    stats = engine.context.stats()
    assert stats["shared_hits"] > 0
    assert stats["shared_misses"] == stats["shared_publishes"] == 0


def test_columns_naming_a_mutated_object_stay_local(tmp_path):
    database, _batch = _workload()
    engine, warm = _engine_with_file(database, tmp_path)
    snapshot_generations = max(database.generations()) + 1
    engine.apply_mutations([Update(3, _box((0.5, 0.5)))])
    current = engine.database
    before = engine.context.stats()
    # every column of this run names the replaced object (as its target)
    engine.domination_count(current[3], current[9], max_iterations=3)
    after = engine.context.stats()
    assert after["pair_bounds_misses"] > before["pair_bounds_misses"]
    assert after["shared_publishes"] == before["shared_publishes"]
    assert after["shared_misses"] == before["shared_misses"]
    # a run over untouched objects still persists its columns
    engine.domination_count(current[4], current[9], max_iterations=3)
    assert engine.context.stats()["shared_publishes"] > after["shared_publishes"]
    warm.close()
    records, _end, _rejected = read_warm_file(
        lane_file(str(tmp_path), 0),
        database_digest(database),
        config_fingerprint(engine.context.axis_policy),
    )
    assert records
    for key, _column in records:
        _schema, _policy, *parts, _config = ast.literal_eval(key.decode())
        for identity, _depth in parts:
            if identity[0] == "db":
                assert identity[2] < snapshot_generations

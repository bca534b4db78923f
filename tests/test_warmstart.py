"""Warm-start persistence: a respawned service reuses the bounds store.

The tentpole contract under test: a :class:`QueryService` given a
persistence knob (``bounds_store_path`` / ``bounds_store_name``) writes
its shared bounds store to a backing that survives the process, and the
*next* incarnation attaches to it through a content handshake — database
digest plus axis/config fingerprint — so the first post-restart batch is
served warm (hit rate >= 50%) and stays bit-identical to the serial path.

The hard-kill test is the honest version: a child process runs a real
service, reports its results, then SIGKILLs itself mid-flight — no
``close()``, no flush, workers orphaned.  The parent reaps the orphans,
respawns the service over the same file and gates the recovery contract.
Truncated and digest-mismatched backings must be detected through the
validation ladder, reported, and rebuilt from empty — never served.

Honours ``REPRO_TEST_START_METHOD`` like the chaos suite, so CI can
matrix fork/spawn over the same tests.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.datasets import random_reference_object, uniform_rectangle_database
from repro.engine import ExecutorConfig, KNNQuery, QueryEngine, QueryService
from repro.engine.boundstore import bound_store_available
from repro.testing.faults import (
    assert_no_leaked_resources,
    kill_worker,
    snapshot_resources,
    truncate_store_file,
)

pytestmark = pytest.mark.skipif(
    not bound_store_available(), reason="shared bounds store unavailable here"
)

START_METHOD = os.environ.get("REPRO_TEST_START_METHOD") or None


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


def _service(database, **kwargs):
    return QueryService(
        QueryEngine(database),
        ExecutorConfig(workers=2, start_method=START_METHOD),
        share_memory=False,
        **kwargs,
    )


def _serve_and_die(path: str, out_path: str) -> None:
    """Child: run one batch against a disk-backed store, then crash hard."""
    database, batch = _workload()
    service = _service(database, bounds_store_path=path)
    results = service.evaluate_many(batch)
    payload = {
        "snapshot": _json_snapshot(results),
        "workers": list(service.worker_pids),
    }
    with open(out_path + ".tmp", "w") as out:
        json.dump(payload, out)
        out.flush()
        os.fsync(out.fileno())
    os.rename(out_path + ".tmp", out_path)  # atomic: readable iff complete
    # no close(), no flush of the store: the crash leaves orphaned workers,
    # an in-use segment counter and (possibly) stale claims behind — the
    # page cache alone carries the published columns to the successor
    os.kill(os.getpid(), signal.SIGKILL)


def test_service_warm_starts_bit_identical_after_hard_kill(tmp_path):
    path = str(tmp_path / "bounds.store")
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
        results = service.evaluate_many(batch)
        # bit-identical across the crash boundary...
        assert _json_snapshot(results) == payload["snapshot"]
        # ...and served warm on the very first post-restart batch
        assert service.last_batch_report.shared_hit_rate >= 0.5
        # the crashed incarnation's stale claims were cleared on adoption
        assert stats["active_claims"] == 0


def test_orderly_restart_reuses_disk_backed_store(tmp_path):
    path = str(tmp_path / "bounds.store")
    database, batch = _workload()
    serial = _snapshot(QueryEngine(database).evaluate_many(batch))
    with _service(database, bounds_store_path=path) as service:
        assert not service.store_warm_started  # first incarnation is cold
        assert _snapshot(service.evaluate_many(batch)) == serial
        assert service.last_batch_report.shared_publishes > 0
    assert os.path.exists(path)  # close() keeps a persistent backing
    with _service(database, bounds_store_path=path) as service:
        assert service.store_warm_started
        assert service.bound_store_stats()["rejected_store"] is None
        assert _snapshot(service.evaluate_many(batch)) == serial
        assert service.last_batch_report.shared_hit_rate >= 0.5


def test_truncated_store_is_rejected_and_rebuilt(tmp_path):
    path = str(tmp_path / "bounds.store")
    database, batch = _workload()
    serial = _snapshot(QueryEngine(database).evaluate_many(batch))
    with _service(database, bounds_store_path=path) as service:
        assert _snapshot(service.evaluate_many(batch)) == serial
    assert truncate_store_file(path) == 64  # torn: not even a full header
    with _service(database, bounds_store_path=path) as service:
        assert not service.store_warm_started
        stats = service.bound_store_stats()
        assert stats["rejected_store"] == "truncated-header"
        # the torn backing was discarded, never served; the rebuilt store
        # works and results are unaffected
        assert _snapshot(service.evaluate_many(batch)) == serial
        assert service.bound_store_stats()["filled_slots"] > 0
    # the rebuilt backing is valid again for the incarnation after that
    with _service(database, bounds_store_path=path) as service:
        assert service.store_warm_started


def test_changed_database_digest_rejects_stale_store(tmp_path):
    path = str(tmp_path / "bounds.store")
    database, batch = _workload()
    with _service(database, bounds_store_path=path) as service:
        service.evaluate_many(batch)
    # same file, different data: the handshake must refuse the stale
    # columns (they were computed against another database's geometry)
    other = uniform_rectangle_database(num_objects=40, max_extent=0.05, seed=9)
    serial = _snapshot(QueryEngine(other).evaluate_many(batch))
    with _service(other, bounds_store_path=path) as service:
        assert not service.store_warm_started
        assert service.bound_store_stats()["rejected_store"] == "digest-mismatch"
        assert _snapshot(service.evaluate_many(batch)) == serial


def test_service_warm_starts_from_named_block():
    name = f"repro_ws_{os.getpid()}"
    database, batch = _workload()
    serial = _snapshot(QueryEngine(database).evaluate_many(batch))
    with _service(database, bounds_store_name=name) as service:
        assert not service.store_warm_started
        assert _snapshot(service.evaluate_many(batch)) == serial
    second = _service(database, bounds_store_name=name)
    try:
        assert second.store_warm_started
        assert _snapshot(second.evaluate_many(batch)) == serial
        assert second.last_batch_report.shared_hit_rate >= 0.5
    finally:
        second._bound_store.destroy()  # unlink: don't leak the named block
        second.close()

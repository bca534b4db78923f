"""Shared-memory dataset transport: export, attach, refcounting, fallback.

The contract under test (``repro/uncertain/sharedmem.py``): while a
database's export is active, pickling the database produces a lightweight
handle whose unpickle *maps* the array payload from one shared block —
bit-identical data, read-only views, memoised per process — and the last
release of the export unlinks the block.  Without an export (or with shared
memory disabled) the plain constructor-based pickle path is taken.  A
service creates no block of its own, and lanes that unpickle an exported
database attach it without dropping the owner's resource-tracker
registration, under every start method.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.datasets import uniform_rectangle_database
from repro.uncertain import (
    UncertainDatabase,
    database_transport,
    discretise_database,
    shared_memory_available,
)
from repro.uncertain import sharedmem


def _dev_shm_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


def _blocks_of(pid: int) -> set[str]:
    """Names of the ``/dev/shm`` blocks process ``pid`` created."""
    return {
        entry for entry in os.listdir("/dev/shm") if entry.startswith(f"repro_{pid}_")
    }


@pytest.fixture()
def database():
    base = uniform_rectangle_database(num_objects=40, max_extent=0.05, seed=1)
    # discrete alternatives give every object a real array payload
    return discretise_database(base, 120, np.random.default_rng(1))


def test_shared_memory_is_available_here():
    # the suite runs on Linux/macOS CI where POSIX shm exists; if this ever
    # fails the remaining tests would silently test nothing
    assert shared_memory_available()


# --------------------------------------------------------------------- #
# export / attach round trip
# --------------------------------------------------------------------- #
def test_handle_pickle_is_small_and_attach_maps(database):
    plain = pickle.dumps(database)
    export = database.share_memory()
    try:
        handled = pickle.dumps(database)
        assert len(handled) < len(plain) / 5
        assert export.payload_nbytes > 0.5 * len(plain)

        clone = pickle.loads(handled)
        assert database_transport(clone) == "shared_memory"
        assert database_transport(database) == "pickle"  # the original copy
        assert len(clone) == len(database)
        assert np.array_equal(clone.mbrs(), database.mbrs())
        for index in (0, 7, len(database) - 1):
            assert np.array_equal(clone[index].points, database[index].points)
            assert np.array_equal(clone[index].weights, database[index].weights)
    finally:
        export.close()


def test_attached_arrays_are_read_only_views(database):
    export = database.share_memory()
    try:
        clone = pickle.loads(pickle.dumps(database))
        assert not clone[0].points.flags.writeable
        with pytest.raises(ValueError):
            clone[0].points[0, 0] = 123.0
    finally:
        export.close()


def test_attachment_is_memoised_per_process(database):
    export = database.share_memory()
    try:
        payload = pickle.dumps(database)
        first = pickle.loads(payload)
        second = pickle.loads(payload)
        assert first is second
    finally:
        export.close()


def test_share_memory_is_idempotent_while_active(database):
    export = database.share_memory()
    try:
        assert database.share_memory() is export
    finally:
        export.close()
    # a closed export is replaced by a fresh one
    second = database.share_memory()
    try:
        assert second is not export
        assert second.active
    finally:
        second.close()


def test_concurrent_consumers_share_one_dev_shm_segment(database):
    """Two consumers acquiring the export map a single ``/dev/shm`` block.

    The regression guarded against: a second ``share_memory()`` call while
    an export is active must bump the refcount on the existing export, not
    export a second copy of the arrays — two services over one database
    would otherwise double the shared-memory footprint.
    """
    first = database.share_memory().acquire()
    second = database.share_memory().acquire()
    try:
        assert second is first
        name = first.handle.shm_name
        assert _dev_shm_exists(name)
        # exactly one dataset block exists for this database
        siblings = [
            entry
            for entry in os.listdir("/dev/shm")
            if entry.startswith(f"repro_{os.getpid()}_")
        ]
        assert siblings == [name]
    finally:
        first.release()
        assert _dev_shm_exists(name)  # one consumer still holds it
        second.release()
    assert not _dev_shm_exists(name)  # the last release unlinked


def test_share_memory_is_thread_safe(database):
    """Racing ``share_memory()`` calls must agree on one export."""
    import threading

    exports = []
    barrier = threading.Barrier(4)

    def worker():
        barrier.wait()
        exports.append(database.share_memory())

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    try:
        assert len({id(export) for export in exports}) == 1
    finally:
        exports[0].close()


def test_attached_database_answers_queries_identically(database):
    from repro.engine import KNNQuery, QueryEngine

    requests = [KNNQuery(3, k=3, tau=0.4, max_iterations=3)]
    expected = QueryEngine(database).evaluate_many(requests)
    export = database.share_memory()
    try:
        clone = pickle.loads(pickle.dumps(database))
        got = QueryEngine(clone).evaluate_many(requests)
        assert [
            (m.index, m.probability_lower, m.probability_upper)
            for m in got[0].all_evaluated()
        ] == [
            (m.index, m.probability_lower, m.probability_upper)
            for m in expected[0].all_evaluated()
        ]
    finally:
        export.close()


# --------------------------------------------------------------------- #
# lifetime: refcounting and unlink
# --------------------------------------------------------------------- #
def test_release_of_last_acquisition_unlinks(database):
    export = database.share_memory()
    name = export.handle.shm_name
    export.acquire()
    export.acquire()
    assert _dev_shm_exists(name)
    export.release()
    assert export.active and _dev_shm_exists(name)
    export.release()
    assert not export.active
    assert not _dev_shm_exists(name)


def test_close_is_idempotent_and_detaches(database):
    export = database.share_memory()
    export.close()
    export.close()
    assert not export.active
    assert database._shared_export is None
    with pytest.raises(RuntimeError):
        export.acquire()


def test_context_manager_counts_one_acquisition(database):
    with database.share_memory() as export:
        name = export.handle.shm_name
        assert export.active
    assert not export.active
    assert not _dev_shm_exists(name)


def test_pickle_falls_back_after_close(database):
    export = database.share_memory()
    export.close()
    clone = pickle.loads(pickle.dumps(database))
    assert database_transport(clone) == "pickle"
    assert np.array_equal(clone.mbrs(), database.mbrs())


def test_stale_handle_raises_clearly(database):
    export = database.share_memory()
    handle = export.handle
    export.close()
    # per-process memoisation would mask the staleness; simulate a fresh
    # process by clearing it for this block
    sharedmem._ATTACHMENTS.pop(handle.shm_name, None)
    with pytest.raises(RuntimeError, match="no longer exists"):
        handle.attach()


# --------------------------------------------------------------------- #
# fallback path
# --------------------------------------------------------------------- #
def test_env_kill_switch_disables_shared_memory(database, monkeypatch):
    monkeypatch.setenv(sharedmem.DISABLE_ENV, "1")
    assert not shared_memory_available()
    with pytest.raises(RuntimeError, match="unavailable"):
        database.share_memory()


def test_plain_pickle_roundtrip_preserves_mbr_cache(database):
    database.mbrs()
    clone = pickle.loads(pickle.dumps(database))
    assert clone._mbr_cache is not None
    assert np.array_equal(clone._mbr_cache, database._mbr_cache)
    assert isinstance(clone, UncertainDatabase)


# --------------------------------------------------------------------- #
# extraction policy
# --------------------------------------------------------------------- #
def test_small_arrays_stay_in_the_shell():
    # 2 tiny objects: every array is below MIN_SHARED_NBYTES, so the export
    # carries an (almost) empty block and the shell holds the data
    small = uniform_rectangle_database(num_objects=2, max_extent=0.05, seed=2)
    export = small.share_memory()
    try:
        assert export.num_arrays <= 1  # at most the (2, d, 2) MBR cache
        clone_payload = pickle.dumps(small)
        clone = pickle.loads(clone_payload)
        assert np.array_equal(clone.mbrs(), small.mbrs())
    finally:
        export.close()


def test_shared_references_stay_shared_after_attach():
    from repro.uncertain import DiscreteObject

    points = np.random.default_rng(5).random((200, 2))
    a = DiscreteObject(points)
    b = DiscreteObject(points)  # same array object on purpose
    database = UncertainDatabase([a, b])
    export = database.share_memory()
    try:
        clone = pickle.loads(pickle.dumps(database))
        assert clone[0].points is clone[1].points
    finally:
        export.close()


# --------------------------------------------------------------------- #
# a service owns one block: mutation deltas ship inline
# --------------------------------------------------------------------- #
needs_shared_memory = pytest.mark.skipif(
    not shared_memory_available(), reason="no shared memory here"
)


def _evaluated(results) -> list:
    return [
        [(m.index, m.probability_lower, m.probability_upper) for m in r.all_evaluated()]
        for r in results
    ]


@needs_shared_memory
def test_a_mutated_service_creates_no_block(database):
    from repro.engine import ExecutorConfig, KNNQuery, QueryEngine, QueryService
    from repro.uncertain import DiscreteObject, Update

    rng = np.random.default_rng(8)
    before = _blocks_of(os.getpid())
    service = QueryService(QueryEngine(database), ExecutorConfig(workers=2))
    try:
        for step in range(100):
            # 64 alternatives: arrays well above MIN_SHARED_NBYTES
            points = rng.uniform(0.0, 1.0, size=(64, 2))
            service.apply([Update(step % len(database), DiscreteObject(points))])
        assert _blocks_of(os.getpid()) == before
        requests = [KNNQuery(index, k=3, tau=0.4, max_iterations=3) for index in (0, 5, 9)]
        got = service.evaluate_many(requests)
        final = UncertainDatabase(list(service.engine.database.objects))
    finally:
        service.close()
    assert _blocks_of(os.getpid()) == before
    assert _evaluated(got) == _evaluated(QueryEngine(final).evaluate_many(requests))


_SHUTDOWN_SCRIPT = """
import sys

import numpy as np

from repro.datasets import uniform_rectangle_database
from repro.engine import ExecutorConfig, KNNQuery, QueryEngine, QueryService
from repro.uncertain import DiscreteObject, Update, discretise_database

rng = np.random.default_rng(3)
base = uniform_rectangle_database(num_objects=30, max_extent=0.05, seed=1)
database = discretise_database(base, 64, rng)
export = database.share_memory()  # lanes that unpickle the engine attach it
service = QueryService(
    QueryEngine(database), ExecutorConfig(workers=2, start_method=sys.argv[1])
)
for _ in range(3):
    service.apply(
        [Update(p, DiscreteObject(rng.uniform(0.0, 1.0, size=(64, 2)))) for p in range(4)]
    )
service.evaluate_many([KNNQuery(index, k=3, tau=0.4, max_iterations=3) for index in range(4)])
service.close()
export.close()
"""


@needs_shared_memory
@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_shutdown_is_clean_under_every_start_method(method):
    """No resource-tracker complaint and no block left, whatever the start method.

    Pool workers share their parent's resource tracker, so a worker that
    dropped a block's registration would make the owner's unlink fail in
    the tracker (a ``KeyError`` traceback on stderr) and leave a crashed
    owner's block behind.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    child = subprocess.Popen(
        [sys.executable, "-c", _SHUTDOWN_SCRIPT, method],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    _, stderr = child.communicate(timeout=120)
    assert child.returncode == 0, stderr
    assert "KeyError" not in stderr
    assert "leaked shared_memory" not in stderr
    assert _blocks_of(child.pid) == set()

"""Process-parallel batch execution: the worker pool behind every service.

This module is longer than the repository's ~600-line guideline because
the worker pool's supervision (respawn, bounded retry, the deadline
watchdog, the mutation-delta barrier) and the worker-side entry points it
drives form one protocol: every piece reads the same lane state, and
splitting them would put one lifecycle behind a module boundary.

Layer contract: everything here sits *above* the engine — it never
reaches into refinement state.  A batch of :class:`~repro.engine.requests`
objects is partitioned into lane-pinned chunks (:func:`affine_partition`),
every chunk is evaluated by calling ``request.run(engine)`` exactly as the
serial path does, and the per-chunk outcomes are merged into a
:class:`BatchReport`.  Three properties make this safe to parallelise:

* **requests are independent** — no request reads another request's result;
* **shared caches never change results** — the refinement context only
  removes recomputation (the invariant asserted by the seeded equivalence
  suite), so it does not matter which worker's cache serves a candidate;
* **budgets are per query** — the scheduler's ``global_iteration_budget``
  applies per :meth:`~RefinementScheduler.refine` call, never across queries,
  so chunk composition cannot starve or favour a query.

Together these give the determinism guarantee documented in
``docs/architecture.md``: ``evaluate_many`` returns bit-identical results for
every worker count, including the serial path.

Worker lifecycle: the parent pickles the engine **once**; every worker
process receives that payload through the pool initializer, unpickles it, and
thereby rebuilds an *empty* worker-local :class:`RefinementContext` (see
``RefinementContext.__reduce__``).  Workers keep their engine across chunks,
so cache warm-up is paid once per worker, not once per chunk.  Dispatch is
worker-affine: each affinity key hashes to a stable lane, so requests that
share a query object run on one worker in this batch and every later one.

:class:`WorkerPool` owns the lanes.  Its one caller is
:class:`~repro.engine.service.QueryService`, which keeps a pool alive across
batches; ``QueryEngine.evaluate_many(executor=ExecutorConfig(...))`` runs
its batch on a short-lived service.  When the database carries an active
shared-memory export (``UncertainDatabase.share_memory``), the engine
payload is a lightweight handle and workers *map* the dataset instead of
unpickling a copy.

Fault tolerance: the pool *supervises* its lanes.  A lane whose worker dies
(SIGKILL, OOM, segfault) surfaces as ``BrokenProcessPool`` on the in-flight
future; the pool respawns the lane with the very same initargs — engine
payload, warm-start spec, lane index — and re-drives the chunk with
bounded exponential backoff.  The retry is bit-identical because results
are deterministic; with a warm-start directory the respawned worker also
loads every column its predecessor appended, so the replay is cheaper than
the first attempt.  A ``deadline_epoch`` propagates into the workers (the
refinement scheduler checks it every iteration) and arms a parent-side
wall-clock watchdog that SIGKILLs and respawns a lane wedged past the
deadline plus :attr:`WorkerPool.watchdog_grace`.  Both escalation paths
raise the typed errors of ``engine/errors.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import threading
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import DeadlineExceeded, WorkerCrashError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .engine import QueryEngine
    from .requests import QueryRequest

__all__ = [
    "BatchReport",
    "ChunkStats",
    "ExecutorConfig",
    "WorkerPool",
    "affine_partition",
    "affinity_lane",
    "result_iteration_stats",
    "run_chunk_on_engine",
]

#: How many times a chunk whose worker died is re-driven on the respawned
#: lane before the crash escalates as :class:`WorkerCrashError`.
DEFAULT_MAX_CHUNK_RETRIES = 3

#: Base of the exponential backoff between a respawn and the retry submit
#: (``backoff * 2**attempt`` seconds) — long enough to not hammer a host
#: that is OOM-killing workers, short enough to be invisible per batch.
DEFAULT_RETRY_BACKOFF_SECONDS = 0.05

#: Grace beyond a batch's deadline before the wall-clock watchdog declares
#: a lane wedged and SIGKILLs it.  Covers the benign case of a chunk that
#: noticed the deadline in-worker and is busy raising/unwinding.
DEFAULT_WATCHDOG_GRACE_SECONDS = 2.0

#: Environment variable the fault-injection harness plants its plan in
#: (see ``repro/testing/faults.py``).  Workers check the variable once per
#: chunk; when unset — always, outside chaos tests — the hook is never
#: imported and costs one dict lookup.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


@dataclass(frozen=True)
class ExecutorConfig:
    """How many worker processes run a batch, and how they start.

    Pass one to :class:`~repro.engine.service.QueryService`, or to
    :meth:`QueryEngine.evaluate_many`, which runs the batch serially when
    :attr:`effective_workers` is 1 or the batch has at most one request,
    and on a short-lived service otherwise.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``None`` (default) derives the count
        from :func:`os.cpu_count`, so the same config scales out on
        multi-core machines.  An explicit value is always authoritative.
        :attr:`effective_workers` is the resolved count.
    start_method:
        Optional :mod:`multiprocessing` start method.  ``None`` prefers
        ``"fork"`` when the platform offers it (cheapest on Linux) and falls
        back to the platform default otherwise.  All methods receive the same
        explicitly pickled engine payload, so cache state is identical —
        empty — regardless of the start method.
    """

    workers: Optional[int] = None
    start_method: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers is not None:
            if not isinstance(self.workers, int) or isinstance(self.workers, bool):
                raise ValueError(f"workers must be an integer, got {self.workers!r}")
            if self.workers <= 0:
                raise ValueError(
                    f"workers must be at least 1 when given, got {self.workers}"
                )

    @property
    def effective_workers(self) -> int:
        """The resolved worker count: explicit ``workers``, else CPU count.

        The default (``workers=None``) asks :func:`os.cpu_count`
        at resolution time, so the same config object adapts to the machine
        it runs on; explicitly configured counts are never overridden.
        """
        if self.workers is not None:
            return self.workers
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ChunkStats:
    """Execution statistics of one chunk, measured inside its worker.

    Cache counters are deltas over the chunk (a worker's context persists
    across the chunks it executes); ``trees`` is the occupancy of the
    worker's tree cache *after* the chunk, i.e. how much decomposition state
    the worker has accumulated so far.  The ``shared_*`` deltas describe the
    lane's warm-start file (zero when the service has none):
    ``shared_hits`` local misses served from the file's columns instead of
    the kernel, ``shared_misses`` local misses the file could not serve, and
    ``shared_publishes`` freshly computed columns appended to the file.

    ``kernel_seconds`` is the wall-clock its worker spent inside the CSR
    kernel during the chunk (a delta of the process-local counters in
    ``repro/core/kernels.py``), so batch time can be attributed to the
    kernel layer without reaching into refinement state.

    ``shared_rejected``, ``shared_duplicates`` and ``claim_waits`` are
    always 0.  They counted events of the cross-lane shared-memory store
    that 2.0.0 removed, and stay only because the ``bench`` harness sums
    them per chunk.
    """

    chunk: int
    size: int
    seconds: float
    pid: int
    kinds: dict[str, int]
    scheduler_steps: int
    result_iterations: int
    result_seconds: float
    trees: int
    pair_bounds_hits: int
    pair_bounds_misses: int
    shared_hits: int = 0
    shared_misses: int = 0
    shared_publishes: int = 0
    kernel_seconds: float = 0.0
    shared_rejected: int = 0
    shared_duplicates: int = 0
    claim_waits: int = 0


@dataclass(frozen=True)
class BatchReport:
    """Merged execution report of one ``evaluate_many`` call.

    One :class:`ChunkStats` per executed chunk (the serial path reports the
    whole batch as a single chunk); the aggregate properties merge the
    per-worker refinement-iteration and cache counters so a batch can be
    profiled without reaching into worker processes.
    """

    #: ``"serial"`` (the calling process) or ``"process"`` (the worker lanes
    #: of a :class:`~repro.engine.service.QueryService`).
    mode: str
    workers: int
    num_requests: int
    elapsed_seconds: float
    chunks: tuple[ChunkStats, ...] = field(default_factory=tuple)
    #: Worker lanes the pool respawned while executing this batch (a crashed
    #: or watchdog-killed worker, replaced with the same initargs).
    worker_respawns: int = 0
    #: Chunks re-driven on a respawned lane after their worker died.  The
    #: retries are bit-identical by determinism, so a non-zero count changes
    #: latency only, never results.
    chunk_retries: int = 0
    #: Database snapshot epoch the batch ran against.
    epoch: int = 0

    @property
    def num_chunks(self) -> int:
        """Number of chunks the batch was partitioned into."""
        return len(self.chunks)

    @property
    def worker_pids(self) -> tuple[int, ...]:
        """Distinct worker process ids that executed chunks, sorted.

        Bounded by ``workers + worker_respawns``: a lane contributes one pid
        for its original worker plus one per respawn of that lane.
        """
        return tuple(sorted({stats.pid for stats in self.chunks}))

    @property
    def completed_requests(self) -> int:
        """Requests that actually executed — the sum of chunk sizes.

        Equals :attr:`num_requests` for a successful batch.
        """
        return sum(stats.size for stats in self.chunks)

    @property
    def scheduler_steps(self) -> int:
        """Total refinement iterations spent across all workers."""
        return sum(stats.scheduler_steps for stats in self.chunks)

    @property
    def result_iterations(self) -> int:
        """Refinement iterations reported by the results, all workers merged."""
        return sum(stats.result_iterations for stats in self.chunks)

    @property
    def result_seconds(self) -> float:
        """Per-query evaluation seconds summed over all results and workers.

        In process mode this exceeds :attr:`elapsed_seconds` when workers
        overlap — the ratio is the effective parallelism of the batch.
        """
        return sum(stats.result_seconds for stats in self.chunks)

    @property
    def pair_bounds_hits(self) -> int:
        """Pair-bounds cache hits summed over all workers."""
        return sum(stats.pair_bounds_hits for stats in self.chunks)

    @property
    def pair_bounds_misses(self) -> int:
        """Pair-bounds cache misses summed over all workers."""
        return sum(stats.pair_bounds_misses for stats in self.chunks)

    @property
    def shared_hits(self) -> int:
        """Columns served from the warm-start file, all workers."""
        return sum(stats.shared_hits for stats in self.chunks)

    @property
    def shared_misses(self) -> int:
        """Local misses the warm-start file could not serve, all workers."""
        return sum(stats.shared_misses for stats in self.chunks)

    @property
    def shared_publishes(self) -> int:
        """Columns appended to the warm-start files, all workers."""
        return sum(stats.shared_publishes for stats in self.chunks)

    @property
    def kernel_seconds(self) -> float:
        """Wall-clock spent inside the CSR pair-bounds kernel, all workers."""
        return sum(stats.kernel_seconds for stats in self.chunks)

    @property
    def shared_hit_rate(self) -> float:
        """Fraction of local-memo misses the warm-start file served.

        ``shared_hits / (shared_hits + shared_misses)``; ``0.0`` when the
        file was never consulted (no warm-start directory, serial path, or
        every lookup hit the local memo).
        """
        consulted = self.shared_hits + self.shared_misses
        if consulted == 0:
            return 0.0
        return self.shared_hits / consulted

    @property
    def kinds(self) -> dict[str, int]:
        """Request counts per query kind, merged over all chunks."""
        merged: Counter[str] = Counter()
        for stats in self.chunks:
            merged.update(stats.kinds)
        return dict(merged)

    @property
    def busiest_chunk_seconds(self) -> float:
        """Wall-clock of the slowest chunk — the parallel critical path."""
        return max((stats.seconds for stats in self.chunks), default=0.0)

    def to_dict(self) -> dict:
        """JSON-serialisable summary of the batch."""
        return {
            "mode": self.mode,
            "workers": self.workers,
            "num_requests": self.num_requests,
            "num_chunks": self.num_chunks,
            "num_worker_pids": len(self.worker_pids),
            "elapsed_seconds": self.elapsed_seconds,
            "busiest_chunk_seconds": self.busiest_chunk_seconds,
            "scheduler_steps": self.scheduler_steps,
            "result_iterations": self.result_iterations,
            "result_seconds": self.result_seconds,
            "pair_bounds_hits": self.pair_bounds_hits,
            "pair_bounds_misses": self.pair_bounds_misses,
            "shared_hits": self.shared_hits,
            "shared_misses": self.shared_misses,
            "shared_publishes": self.shared_publishes,
            "shared_hit_rate": self.shared_hit_rate,
            "worker_respawns": self.worker_respawns,
            "chunk_retries": self.chunk_retries,
            "completed_requests": self.completed_requests,
            "kernel_seconds": self.kernel_seconds,
            "kinds": self.kinds,
            "chunk_sizes": [stats.size for stats in self.chunks],
            "epoch": self.epoch,
        }

    def __str__(self) -> str:
        """One-line execution summary."""
        return (
            f"BatchReport({self.mode}, workers={self.workers}, "
            f"{self.num_requests} req in {self.num_chunks} chunks, "
            f"{self.elapsed_seconds * 1e3:.1f} ms, "
            f"local {self.pair_bounds_hits}H/{self.pair_bounds_misses}M, "
            f"shared {self.shared_hits}H/{self.shared_misses}M/"
            f"{self.shared_publishes}P)"
        )


# --------------------------------------------------------------------- #
# batch partitioning
# --------------------------------------------------------------------- #
def affinity_lane(key, workers: int) -> int:
    """Worker lane of an affinity key: a stable hash modulo the pool size.

    Stable *within a process*: ``hash`` of the key tuples the requests build
    (small ints and interned tags, plus ``id()`` for ad-hoc objects) does
    not vary between calls, so successive batches submitted to the same
    :class:`~repro.engine.service.QueryService` route a recurring query
    object to the same worker — whose local caches already hold its trees
    and bounds columns.  The lane never influences results, only which
    worker's cache gets warmed.
    """
    return hash(key) % workers


def affine_partition(
    requests: Sequence["QueryRequest"], workers: int
) -> tuple[list[list[int]], list[int]]:
    """Partition a batch into chunks pinned to stable worker lanes.

    Requests are bucketed by the lane :func:`affinity_lane` assigns to their
    :meth:`~repro.engine.requests.KNNQuery.affinity_key` — a function of the
    key alone, not of the batch — so requests that share a query object run
    in one chunk, and follow-up batches land on the same workers' warm
    caches.  Returns ``(chunks, lanes)``: one chunk per non-empty lane, in
    lane order, each holding its request indices in ascending order.  Every
    request index appears in exactly one chunk, so reassembly by index
    reproduces request order.

    The trade-off versus a load-balanced assignment: a skewed batch can
    leave lanes idle.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    buckets: dict[int, list[int]] = {}
    for index, request in enumerate(requests):
        buckets.setdefault(affinity_lane(request.affinity_key(), workers), []).append(
            index
        )
    lanes = sorted(buckets)
    return [buckets[lane] for lane in lanes], lanes


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #
# One engine per worker process, installed by the pool initializer.  The
# payload is pickled by the parent exactly once; unpickling rebuilds the
# refinement context with empty worker-local caches (RefinementContext
# reduces to its constructor arguments) and a fresh scheduler accounting
# state (RefinementScheduler reduces to its configuration).
_WORKER_ENGINE: Optional["QueryEngine"] = None

# Lane index this worker serves (shipped as an initarg), used only by the
# fault-injection harness to target a specific lane.
_WORKER_LANE: Optional[int] = None


def result_iteration_stats(results: Sequence) -> tuple[int, float]:
    """Merge the per-result ``IterationStats``-level counters of a chunk.

    Returns ``(refinement_iterations, seconds)`` summed over every result:
    threshold results contribute the iteration counts of their matches and
    their per-query wall-clock, ranking results the iteration counts of
    their entries, and IDCA-backed results the per-iteration statistics of
    the underlying :class:`~repro.core.idca.IDCAResult`.
    """
    iterations = 0
    seconds = 0.0
    for result in results:
        idca_result = getattr(result, "idca_result", None)
        if idca_result is None and hasattr(result, "iterations") and hasattr(
            result, "total_seconds"
        ):
            idca_result = result  # a raw IDCAResult from DominationCountQuery
        if idca_result is not None:
            iterations += idca_result.num_iterations
            seconds += idca_result.total_seconds
            continue
        if hasattr(result, "matches"):
            iterations += sum(
                m.iterations
                for bucket in (result.matches, result.undecided, result.rejected)
                for m in bucket
            )
            seconds += result.elapsed_seconds
        elif hasattr(result, "ranking"):
            iterations += sum(entry.iterations for entry in result.ranking)
            seconds += result.elapsed_seconds
    return iterations, seconds


def _initialise_worker(
    payload: bytes,
    warm_start: Optional[tuple[str, bytes, bytes]] = None,
    lane: Optional[int] = None,
    deltas: tuple = (),
) -> None:
    """Pool initializer: unpack the engine shipped by the parent process.

    ``warm_start`` is ``(directory, database digest, config fingerprint)``
    when the service has a warm-start directory: the worker then opens its
    lane's :class:`~repro.engine.boundstore.WarmStartFile`, which loads the
    columns every lane appended so far, and attaches it to its context.  A
    file that cannot be opened (e.g. the directory became unwritable)
    leaves the worker on purely local memoisation — never a failed spawn.
    A respawned lane runs this initializer again with identical arguments,
    so it starts from every column its predecessor appended.

    ``deltas`` is the pool's accumulated mutation-delta history: the engine
    payload is pickled exactly once at pool construction, so a lane spawned
    (or respawned) after the database mutated replays the deltas in order to
    reach the pool's current snapshot epoch bit-identically.  The warm-start
    file attaches first, while the context still holds the snapshot the
    file's handshake covers.
    """
    global _WORKER_ENGINE, _WORKER_LANE
    _WORKER_ENGINE = pickle.loads(payload)
    _WORKER_LANE = lane
    if warm_start is not None:
        from .boundstore import WarmStartFile

        directory, digest, config = warm_start
        try:
            warm = WarmStartFile(directory, lane, digest, config)
        except OSError:
            warm = None
        if warm is not None:
            _WORKER_ENGINE.context.attach_warm_start(warm)
    for delta in deltas:
        _apply_delta_to_engine(_WORKER_ENGINE, delta)


def _apply_delta_to_engine(engine: "QueryEngine", delta) -> int:
    """Replay one mutation delta on an engine; returns the engine's epoch.

    Idempotent by epoch: a delta whose ``new_epoch`` the engine has already
    reached is skipped (a respawned lane replays the full history through the
    initializer before the pool re-submits the delta that triggered the
    respawn).  A delta that does not chain onto the current epoch means the
    histories diverged — that is a bug, not a recoverable condition.
    """
    database = engine.database
    if database.epoch >= delta.new_epoch:
        return database.epoch
    if database.epoch != delta.base_epoch:
        raise RuntimeError(
            f"mutation delta targets epoch {delta.base_epoch} but the worker "
            f"database is at epoch {database.epoch}"
        )
    engine.apply_mutations(pickle.loads(delta.shell))
    return engine.database.epoch


def _worker_apply_delta(delta) -> int:
    """Advance the worker-local engine by one delta (runs inside a worker)."""
    engine = _WORKER_ENGINE
    if engine is None:  # pragma: no cover - defensive: initializer not run
        raise RuntimeError("worker engine was never initialised")
    return _apply_delta_to_engine(engine, delta)


def run_chunk_on_engine(
    engine: "QueryEngine",
    requests: Sequence["QueryRequest"],
    chunk_index: int = 0,
    deadline_epoch: Optional[float] = None,
) -> tuple[list, ChunkStats]:
    """Evaluate ``requests`` on ``engine`` and measure them as one chunk.

    Runs ``request.run(engine)`` in chunk order and records the chunk's
    wall-clock plus the deltas of the engine's cache and scheduler counters.
    This is the single measurement path: the serial batch mode calls it in
    the parent process and :func:`_run_chunk` calls it inside each worker,
    so the two execution modes always report comparable :class:`ChunkStats`.

    ``deadline_epoch`` (a ``time.time()`` epoch, comparable across
    processes) makes the chunk deadline-aware: the remaining requests are
    abandoned with :class:`~repro.engine.errors.DeadlineExceeded` once the
    epoch passes.  The scheduler-level per-iteration check (see
    :meth:`RefinementScheduler.refine`) cuts *inside* a request; this one
    cuts between requests, so an expired chunk never starts new work.
    """
    from ..core.kernels import total_kernel_seconds

    before = engine.context.stats()
    steps_before = engine.scheduler.steps_taken
    kernel_before = total_kernel_seconds()
    start = time.perf_counter()
    results = []
    for request in requests:
        if deadline_epoch is not None and time.time() >= deadline_epoch:
            raise DeadlineExceeded(
                f"chunk {chunk_index} passed its deadline with "
                f"{len(requests) - len(results)} of {len(requests)} requests left"
            )
        results.append(request.run(engine))
    seconds = time.perf_counter() - start
    after = engine.context.stats()
    result_iterations, result_seconds = result_iteration_stats(results)
    stats = ChunkStats(
        chunk=chunk_index,
        size=len(requests),
        seconds=seconds,
        pid=os.getpid(),
        kinds=dict(Counter(request.kind for request in requests)),
        scheduler_steps=engine.scheduler.steps_taken - steps_before,
        result_iterations=result_iterations,
        result_seconds=result_seconds,
        trees=after["trees"],
        pair_bounds_hits=after["pair_bounds_hits"] - before["pair_bounds_hits"],
        pair_bounds_misses=after["pair_bounds_misses"] - before["pair_bounds_misses"],
        shared_hits=after["shared_hits"] - before["shared_hits"],
        shared_misses=after["shared_misses"] - before["shared_misses"],
        shared_publishes=after["shared_publishes"] - before["shared_publishes"],
        kernel_seconds=total_kernel_seconds() - kernel_before,
    )
    return results, stats


def _run_chunk(
    chunk_index: int,
    requests: Sequence["QueryRequest"],
    deadline_epoch: Optional[float] = None,
) -> tuple[int, list, ChunkStats]:
    """Evaluate one chunk on the worker-local engine; returns chunk stats."""
    engine = _WORKER_ENGINE
    if engine is None:  # pragma: no cover - defensive: initializer not run
        raise RuntimeError("worker engine was never initialised")
    if os.environ.get(FAULT_PLAN_ENV):  # chaos tests only; no import otherwise
        from ..testing.faults import chunk_fault_hook

        chunk_fault_hook(_WORKER_LANE)
    engine.scheduler.deadline_epoch = deadline_epoch
    try:
        results, stats = run_chunk_on_engine(
            engine, requests, chunk_index, deadline_epoch=deadline_epoch
        )
    finally:
        engine.scheduler.deadline_epoch = None
    return chunk_index, results, stats


def _worker_probe() -> dict:
    """Introspect the worker-local engine (runs inside a worker process).

    Reports the worker's pid and how it obtained its database: on the
    shared-memory path the worker *attached* the dataset (arrays are
    read-only views into the parent's block, named by ``shm_name``); on the
    fallback path it unpickled a private copy.  Used by
    ``QueryService.probe_workers`` and the transport tests.
    """
    from ..uncertain.sharedmem import database_transport

    engine = _WORKER_ENGINE
    if engine is None:  # pragma: no cover - defensive: initializer not run
        raise RuntimeError("worker engine was never initialised")
    database = engine.database
    return {
        "pid": os.getpid(),
        "transport": database_transport(database),
        "shm_name": getattr(database, "_shm_name", None),
        "num_objects": len(database),
        "epoch": database.epoch,
    }


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #
def _pool_context(start_method: Optional[str]) -> multiprocessing.context.BaseContext:
    """Multiprocessing context for the pool.

    ``fork`` is preferred only on Linux, where it is both safe and by far
    the cheapest; macOS deliberately defaulted to ``spawn`` in CPython 3.8
    because forking a process that has initialised system frameworks is
    unsafe, so every other platform keeps its default start method.
    """
    if start_method is None:
        if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
            start_method = "fork"
        else:
            return multiprocessing.get_context()
    return multiprocessing.get_context(start_method)


class WorkerPool:
    """A process pool bound to one pickled engine payload, reusable across
    batches.

    The pool owns the worker lifecycle the parallel executor relies on: the
    engine is pickled exactly once at construction (with a shared-memory
    export active on the database, the payload is a lightweight handle —
    see ``repro/uncertain/sharedmem.py``), every worker rebuilds it through
    the pool initializer, and the worker-local caches then persist across
    every chunk the pool ever executes.  A
    :class:`~repro.engine.service.QueryService` keeps one alive across its
    whole lifetime, which is where pool startup and cache warm-up
    amortisation pay off.

    Internally the pool is a set of single-worker **lanes** (one
    ``ProcessPoolExecutor`` of one process each).  Every chunk names its
    lane and runs on exactly that worker — which is what lets the service
    pin affinity buckets of successive batches to the worker whose caches
    already hold their state (:func:`affine_partition`).  Lane choice never
    influences results, only where warm-up happens.

    With ``warm_start`` set (``(directory, database digest, config
    fingerprint)``), every worker opens its lane's warm-start file through
    the initializer (see :func:`_initialise_worker`).

    Supervision (``supervised=True``, the default): a lane whose worker
    process dies surfaces ``BrokenProcessPool`` on its futures; the pool
    replaces the lane's executor with a fresh one built from the *same*
    initargs and re-drives the failed chunk there, with exponential backoff
    and at most ``max_chunk_retries`` attempts per chunk before the crash
    escalates as :class:`~repro.engine.errors.WorkerCrashError`.  Chunks
    merely *queued* behind the crash are resubmitted the same way.
    """

    def __init__(
        self,
        engine: "QueryEngine",
        workers: int,
        start_method: Optional[str] = None,
        warm_start: Optional[tuple[str, bytes, bytes]] = None,
        supervised: bool = True,
        max_chunk_retries: int = DEFAULT_MAX_CHUNK_RETRIES,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF_SECONDS,
        watchdog_grace: float = DEFAULT_WATCHDOG_GRACE_SECONDS,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if max_chunk_retries < 0:
            raise ValueError("max_chunk_retries must be non-negative")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        if watchdog_grace <= 0:
            raise ValueError("watchdog_grace must be positive")
        self.workers = workers
        self.supervised = supervised
        self.max_chunk_retries = max_chunk_retries
        self.retry_backoff = retry_backoff
        self.watchdog_grace = watchdog_grace
        self.respawns = 0
        self._payload = pickle.dumps(engine)
        self._mp_context = _pool_context(start_method)
        self._warm_start = warm_start
        # mutation-delta history: replayed by every lane spawned after the
        # payload was pickled, so respawns land on the current snapshot
        self._deltas: list = []
        self._lanes = [self._new_lane(lane) for lane in range(workers)]
        # bumped on every respawn of a lane, so concurrent failures of many
        # futures from the same dead executor trigger exactly one respawn
        self._generation = [0] * workers
        self._respawn_lock = threading.Lock()
        self._closed = False

    def _new_lane(self, lane: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=1,
            mp_context=self._mp_context,
            initializer=_initialise_worker,
            initargs=(self._payload, self._warm_start, lane, tuple(self._deltas)),
        )

    @property
    def payload_nbytes(self) -> int:
        """Size of the engine payload each worker receives, in bytes."""
        return len(self._payload)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (a closed pool accepts no chunks)."""
        return self._closed

    def _respawn_lane(self, lane: int, generation: int) -> None:
        """Replace a dead lane's executor with a fresh worker (same initargs).

        ``generation`` is the lane generation the caller observed when it
        submitted the failed work: if the lane has already been respawned
        since (several futures of the same dead executor fail together),
        this is a no-op — one crash costs one respawn.
        """
        with self._respawn_lock:
            if self._closed or self._generation[lane] != generation:
                return
            old = self._lanes[lane]
            self._lanes[lane] = self._new_lane(lane)
            self._generation[lane] += 1
            self.respawns += 1
        old.shutdown(wait=False, cancel_futures=True)

    def _kill_lane(self, lane: int) -> None:
        """SIGKILL a lane's worker process (the watchdog's hammer)."""
        executor = self._lanes[lane]
        for process in list(getattr(executor, "_processes", {}).values()):
            try:
                process.kill()
            except Exception:  # pragma: no cover - process already gone
                pass

    def submit_chunk(
        self,
        chunk_index: int,
        requests: Sequence["QueryRequest"],
        lane: int,
        deadline_epoch: Optional[float] = None,
    ):
        """Dispatch one chunk to ``lane``; the future resolves to
        ``(chunk_index, results, stats)``.

        Out-of-range lanes wrap modulo the pool size, so lane assignments
        computed for a larger pool degrade gracefully.  On a supervised
        pool, submitting to a lane whose worker has died respawns the lane
        and submits to the fresh worker.
        """
        lane %= self.workers
        try:
            return self._lanes[lane].submit(
                _run_chunk, chunk_index, list(requests), deadline_epoch
            )
        except BrokenExecutor:
            # the lane died between batches: respawn once and retry there
            if not self.supervised:
                raise
            self._respawn_lane(lane, self._generation[lane])
            return self._lanes[lane].submit(
                _run_chunk, chunk_index, list(requests), deadline_epoch
            )

    def run_chunks(
        self,
        requests: Sequence["QueryRequest"],
        chunks: Sequence[Sequence[int]],
        lanes: Sequence[int],
        deadline_epoch: Optional[float] = None,
    ) -> tuple[list, list[ChunkStats], dict[str, int]]:
        """Execute pre-partitioned chunks and reassemble request order.

        Chunk ``i`` runs on worker lane ``lanes[i]`` (the worker-affine
        dispatch of :func:`affine_partition`); every chunk is submitted at
        once, so a lane with several chunks queues them.  Results are placed
        by original request index, so the lane assignment affects only
        *where* cache warm-up happens, never the results.

        Failure handling, in escalation order: a chunk whose worker *died*
        (``BrokenProcessPool``) has its lane respawned and is re-driven
        there with exponential backoff, up to ``max_chunk_retries`` times —
        bit-identical by determinism — before escalating as
        :class:`~repro.engine.errors.WorkerCrashError`.  With a
        ``deadline_epoch``, lanes still holding chunks past the deadline
        plus :attr:`watchdog_grace` are SIGKILLed and respawned, and the
        batch raises :class:`~repro.engine.errors.DeadlineExceeded`.  Any
        *ordinary* chunk exception cancels the pending chunks and
        propagates unchanged — worker processes survive it, so a poisoned
        batch does not cost a persistent service its pool.

        Returns ``(results, chunk_stats, faults)`` where ``faults`` carries
        the batch's ``{"worker_respawns", "chunk_retries"}`` counters.
        """
        results: list = [None] * len(requests)
        chunk_stats: list[ChunkStats] = []
        attempts = [0] * len(chunks)
        retries = 0
        respawns_before = self.respawns
        pending: dict = {}  # in-flight future -> (chunk index, lane, generation)

        def _submit(index: int) -> None:
            lane = lanes[index] % self.workers
            future = self.submit_chunk(
                index, [requests[i] for i in chunks[index]], lane, deadline_epoch
            )
            pending[future] = (index, lane, self._generation[lane])

        for index in range(len(chunks)):
            _submit(index)
        try:
            while pending:
                timeout = None
                if deadline_epoch is not None:
                    timeout = max(
                        0.0, deadline_epoch + self.watchdog_grace - time.time()
                    )
                done, _ = wait(
                    set(pending), timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    # watchdog: nothing finished by deadline + grace — the
                    # lane(s) are wedged beyond what in-worker deadline
                    # checks can reach.  Kill, respawn, fail the batch.
                    wedged = sorted({entry[1] for entry in pending.values()})
                    for lane in wedged:
                        generation = self._generation[lane]
                        self._kill_lane(lane)
                        self._respawn_lane(lane, generation)
                    raise DeadlineExceeded(
                        f"deadline passed {self.watchdog_grace:.1f}s ago; "
                        f"terminated and respawned wedged worker lane(s) {wedged}"
                    )
                for future in done:
                    index, lane, generation = pending.pop(future)
                    try:
                        _, chunk_results, stats = future.result()
                    except BrokenExecutor as error:
                        # the lane's worker died under this chunk (or under
                        # the chunk queued ahead of it) — respawn and retry
                        self._respawn_lane(lane, generation)
                        if not self.supervised or attempts[index] >= self.max_chunk_retries:
                            raise WorkerCrashError(
                                f"worker lane {lane} died running chunk {index} "
                                f"(attempt {attempts[index] + 1})"
                            ) from error
                        if deadline_epoch is not None and time.time() >= deadline_epoch:
                            raise DeadlineExceeded(
                                f"worker lane {lane} died running chunk {index} "
                                "and the batch deadline leaves no time to retry"
                            ) from error
                        time.sleep(self.retry_backoff * (2 ** attempts[index]))
                        attempts[index] += 1
                        retries += 1
                        _submit(index)
                        continue
                    for position, result in zip(chunks[index], chunk_results):
                        results[position] = result
                    chunk_stats.append(stats)
        except BaseException:
            for future in pending:
                future.cancel()
            raise
        chunk_stats.sort(key=lambda stats: stats.chunk)
        faults = {
            "worker_respawns": self.respawns - respawns_before,
            "chunk_retries": retries,
        }
        return results, chunk_stats, faults

    def probe(self, lane: int = 0) -> dict:
        """Run the worker probe on one worker lane and return its report."""
        return self._lanes[lane % self.workers].submit(_worker_probe).result()

    def apply_delta(self, delta) -> None:
        """Advance every worker lane to the delta's snapshot epoch.

        Appends the delta to the pool's replay history first, so a lane that
        dies mid-apply (or any time later) is respawned straight onto the new
        epoch — the initializer replays the history and the re-submitted
        apply becomes an epoch-checked no-op.  Blocks until every lane
        confirmed the new epoch; callers (the service dispatcher) run this
        between batches, which is what makes it a barrier.
        """
        if self._closed:
            raise RuntimeError("the worker pool is closed")
        self._deltas.append(delta)
        pending = {
            lane: (self._lanes[lane], self._generation[lane])
            for lane in range(self.workers)
        }
        attempts = 0
        while pending:
            futures = {}
            for lane, (executor, generation) in pending.items():
                try:
                    futures[lane] = (executor.submit(_worker_apply_delta, delta), generation)
                except BrokenExecutor:
                    futures[lane] = (None, generation)
            retry: dict[int, tuple] = {}
            for lane, (future, generation) in futures.items():
                try:
                    if future is None:
                        raise BrokenExecutor("lane died before the delta apply")
                    future.result()
                except BrokenExecutor:
                    if not self.supervised or attempts >= self.max_chunk_retries:
                        raise
                    self._respawn_lane(lane, generation)
                    retry[lane] = (self._lanes[lane], self._generation[lane])
            if retry:
                attempts += 1
            pending = retry

    def close(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Shut the pool down (idempotent).

        ``wait=True`` blocks until the workers exited — afterwards no child
        processes remain.  ``cancel_pending=True`` additionally cancels
        chunks that have not started (running chunks always finish).
        """
        if self._closed:
            return
        self._closed = True
        for lane in self._lanes:
            lane.shutdown(wait=wait, cancel_futures=cancel_pending)

    def __enter__(self) -> "WorkerPool":
        """Context-manager entry: the pool itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: close the pool, waiting for the workers."""
        self.close(wait=True, cancel_pending=exc_type is not None)


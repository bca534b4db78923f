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

Worker lifecycle: every lane starts from the parent's **current** engine.
A forked lane inherits the engine object — nothing is pickled.  Under
``spawn`` / ``forkserver`` the parent pickles the engine once per lane start
into a private temporary file and passes only its path, so a process-start
pipe write stays a few KiB; the copy rebuilds an *empty* worker-local
:class:`RefinementContext` (see ``RefinementContext.__reduce__``).  Workers
keep their engine across chunks, so cache warm-up is paid once per worker.
Dispatch is worker-affine: each affinity key hashes to a stable lane, so
requests that share a query object run on one worker in every batch.
:class:`WorkerPool` owns the lanes; its one caller is
:class:`~repro.engine.service.QueryService`.  Live lanes follow mutations
through the :meth:`WorkerPool.apply_delta` barrier; a lane started later
needs no history.

Thread invariant: a lane process starts eagerly inside
:meth:`WorkerPool._new_lane`, which runs only at pool construction (before
the service's dispatcher thread exists) or on the dispatcher thread — the
one thread that mutates the parent engine's snapshot — so no lane starts
from a half-applied mutation.  Other threads may fill the parent engine's
caches (adapter calls on a service), which a forked lane may inherit;
caches never change results.

Each lane keeps one in-memory pair-bounds memo in its engine's
:class:`RefinementContext`; nothing of it is persisted or shared between
lanes, and a respawned lane starts with whatever the parent engine holds.

Fault tolerance: the pool *supervises* its lanes.  A lane whose worker dies
(SIGKILL, OOM, segfault) surfaces as ``BrokenProcessPool`` on the in-flight
future; the pool respawns the lane from the current engine, with the same
lane index, and re-drives the chunk with bounded exponential backoff.  The
retry is bit-identical because results are deterministic.  A
``deadline_epoch`` propagates into the workers (the
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
import tempfile
import threading
import time
from collections import Counter
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Union

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
RETRY_BACKOFF_SECONDS = 0.05

#: Grace beyond a batch's deadline before the wall-clock watchdog declares
#: a lane wedged and SIGKILLs it.  Covers the benign case of a chunk that
#: noticed the deadline in-worker and is busy raising/unwinding.
DEFAULT_WATCHDOG_GRACE_SECONDS = 2.0

#: Longest single wait of :meth:`WorkerPool.run_chunks` before it checks
#: for cancelled chunks and the watchdog deadline again.
_POLL_SECONDS = 0.25

#: A block every lane allocates and frees as it starts.  glibc's malloc
#: raises its mmap threshold to the largest mmapped block freed so far;
#: a lane that never frees one mmaps, and page-faults afresh, every numpy
#: temporary above the 128 KiB default (on ``mutate_mixed_15k`` that was
#: nine times the minor faults and a fifth more query latency).  Unpickling
#: an engine payload used to raise the threshold as a side effect.
_MALLOC_WARMUP_BYTES = 4 << 20

#: Environment variable the fault-injection harness plants its plan in
#: (see ``repro/testing/faults.py``).  Workers check the variable once per
#: chunk; when unset — always, outside chaos tests — the hook is never
#: imported and costs one dict lookup.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


@dataclass(frozen=True)
class ExecutorConfig:
    """How many worker processes a :class:`~repro.engine.service.QueryService`
    runs, and how they start.

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
        back to the platform default otherwise.  A forked lane inherits the
        parent engine, caches included; any other method unpickles a copy
        with empty caches.  Caches never change results.
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
    the worker has accumulated so far.

    ``kernel_seconds`` is the wall-clock its worker spent inside the CSR
    kernel during the chunk (a delta of the process-local counters in
    ``repro/core/kernels.py``), so batch time can be attributed to the
    kernel layer without reaching into refinement state.

    ``shared_rejected``, ``shared_duplicates`` and ``claim_waits`` are
    always 0.  They counted events of the cross-lane shared-memory store
    that 2.0.0 removed.  ``shared_hits``, ``shared_misses`` and
    ``shared_publishes`` are always 0 too: they counted the warm-start file
    that 8.0.0 removed.  All six stay only because the ``bench`` harness
    sums them per chunk.
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
        """Always 0: kept for the ``bench`` harness, which reads it.

        It counted columns served from the warm-start file 8.0.0 removed.
        """
        return 0

    @property
    def kernel_seconds(self) -> float:
        """Wall-clock spent inside the CSR pair-bounds kernel, all workers."""
        return sum(stats.kernel_seconds for stats in self.chunks)

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
            f"memo {self.pair_bounds_hits}H/{self.pair_bounds_misses}M)"
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
# One engine per worker process, installed by the pool initializer: the
# parent's engine object itself in a forked lane, an unpickled copy
# otherwise (RefinementContext reduces to its constructor arguments and
# RefinementScheduler to its configuration, so the copy's caches and step
# accounting start empty).
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


def _initialise_worker(engine: Union["QueryEngine", str], lane: int) -> None:
    """Pool initializer: install the parent's current engine in this worker.

    ``engine`` is the parent's engine object in a forked lane, otherwise
    the path of the file the parent pickled it into for this lane start.
    """
    global _WORKER_ENGINE, _WORKER_LANE
    bytearray(_MALLOC_WARMUP_BYTES)  # freed at once: see the constant
    if isinstance(engine, str):
        with open(engine, "rb") as handle:
            engine = pickle.load(handle)
    _WORKER_ENGINE = engine
    _WORKER_LANE = lane


def _apply_delta_to_engine(engine: "QueryEngine", delta) -> int:
    """Apply one mutation delta to an engine; returns the engine's new epoch.

    A delta that does not chain onto the engine's current epoch means the
    lane and the parent diverged — that is a bug, not a recoverable
    condition.
    """
    database = engine.database
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

    Reports the worker's pid, the size of its database and the snapshot
    epoch it serves.  Used by ``QueryService.warm`` / ``probe_workers``.
    """
    engine = _WORKER_ENGINE
    if engine is None:  # pragma: no cover - defensive: initializer not run
        raise RuntimeError("worker engine was never initialised")
    return {
        "pid": os.getpid(),
        "num_objects": len(engine.database),
        "epoch": engine.database.epoch,
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
    """A set of worker lanes over one engine, reusable across batches.

    Every lane starts from the engine as it is at that moment (see the
    module docstring for the start path and its thread invariant), and the
    worker-local caches then persist across every chunk the lane executes.
    A :class:`~repro.engine.service.QueryService` keeps one pool alive
    across its whole lifetime, which is where lane startup and cache warm-up
    amortisation pay off.

    Internally the pool is a set of single-worker **lanes** (one
    ``ProcessPoolExecutor`` of one process each).  Every chunk names its
    lane and runs on exactly that worker — which is what lets the service
    pin affinity buckets of successive batches to the worker whose caches
    already hold their state (:func:`affine_partition`).  Lane choice never
    influences results, only where warm-up happens.

    Supervision: a lane whose worker process dies surfaces
    ``BrokenProcessPool`` on its futures; the pool replaces the lane with a
    fresh worker started from the current engine and re-drives the failed
    chunk there, with exponential backoff (:data:`RETRY_BACKOFF_SECONDS`)
    and at most ``max_chunk_retries`` attempts per chunk before the crash
    escalates as :class:`~repro.engine.errors.WorkerCrashError`
    (``max_chunk_retries=0`` fails the batch on the first crash, after the
    respawn).  Chunks merely *queued* behind the crash are resubmitted the
    same way.
    """

    def __init__(
        self,
        engine: "QueryEngine",
        workers: int,
        start_method: Optional[str] = None,
        max_chunk_retries: int = DEFAULT_MAX_CHUNK_RETRIES,
        watchdog_grace: float = DEFAULT_WATCHDOG_GRACE_SECONDS,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if max_chunk_retries < 0:
            raise ValueError("max_chunk_retries must be non-negative")
        if watchdog_grace <= 0:
            raise ValueError("watchdog_grace must be positive")
        self.workers = workers
        self.max_chunk_retries = max_chunk_retries
        self.watchdog_grace = watchdog_grace
        self.respawns = 0
        #: Bytes of the engine pickle behind the latest lane start (0: fork).
        self.payload_nbytes = 0
        self._engine = engine
        self._mp_context = _pool_context(start_method)
        self._fork = self._mp_context.get_start_method() == "fork"
        self._lanes = [self._new_lane(lane) for lane in range(workers)]
        # bumped on every respawn of a lane, so concurrent failures of many
        # futures from the same dead executor trigger exactly one respawn
        self._generation = [0] * workers
        self._respawn_lock = threading.Lock()
        self._closed = False

    def _new_lane(self, lane: int) -> ProcessPoolExecutor:
        """Start one lane's worker process now, from the current engine.

        Under ``spawn`` / ``forkserver`` the engine's pickle file is removed
        once the lane has started, or failed to.
        """
        engine: Union["QueryEngine", str] = self._engine
        if not self._fork:
            payload = pickle.dumps(self._engine)
            self.payload_nbytes = len(payload)
            descriptor, engine = tempfile.mkstemp(
                prefix="repro-lane-", suffix=".pickle"
            )
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(payload)
        executor = ProcessPoolExecutor(
            max_workers=1,
            mp_context=self._mp_context,
            initializer=_initialise_worker,
            initargs=(engine, lane),
        )
        started = executor.submit(_worker_probe)  # the process starts now
        if not self._fork:
            started.add_done_callback(lambda _future: os.unlink(engine))
        return executor

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (a closed pool accepts no chunks)."""
        return self._closed

    def _respawn_lane(self, lane: int, generation: int) -> None:
        """Replace a dead lane's executor with a fresh worker.

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

    def _submit(self, lane: int, function, *args) -> Future:
        """Submit ``function(*args)`` to ``lane``; a dead lane fails the future."""
        try:
            return self._lanes[lane].submit(function, *args)
        except BrokenExecutor as error:
            failed: Future = Future()
            failed.set_exception(error)
            return failed

    def submit_chunk(
        self,
        chunk_index: int,
        requests: Sequence["QueryRequest"],
        lane: int,
        deadline_epoch: Optional[float] = None,
    ) -> Future:
        """Dispatch one chunk to ``lane``; the future resolves to
        ``(chunk_index, results, stats)``.

        Out-of-range lanes wrap modulo the pool size, so lane assignments
        computed for a larger pool degrade gracefully.  A lane whose worker
        has died fails the future with ``BrokenProcessPool``;
        :meth:`run_chunks` respawns the lane and re-drives the chunk.
        """
        return self._submit(
            lane % self.workers, _run_chunk, chunk_index, list(requests), deadline_epoch
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
                # a bounded wait: closing the pool with cancel_pending
                # cancels queued chunks without waking wait(), so each round
                # also looks for cancelled futures
                done, _ = wait(
                    set(pending), timeout=_POLL_SECONDS, return_when=FIRST_COMPLETED
                )
                if not done:
                    if any(future.cancelled() for future in pending):
                        raise CancelledError("the worker pool closed under this batch")
                    if (
                        deadline_epoch is None
                        or time.time() < deadline_epoch + self.watchdog_grace
                    ):
                        continue
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
                        if attempts[index] >= self.max_chunk_retries:
                            raise WorkerCrashError(
                                f"worker lane {lane} died running chunk {index} "
                                f"(attempt {attempts[index] + 1})"
                            ) from error
                        if deadline_epoch is not None and time.time() >= deadline_epoch:
                            raise DeadlineExceeded(
                                f"worker lane {lane} died running chunk {index} "
                                "and the batch deadline leaves no time to retry"
                            ) from error
                        time.sleep(RETRY_BACKOFF_SECONDS * (2 ** attempts[index]))
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
        """Run the worker probe on one worker lane and return its report.

        Waits for the lane to start.  A lane whose worker died, also while
        starting, raises :class:`~repro.engine.errors.WorkerCrashError`; the
        probe does not respawn it (lanes start only on the thread that
        drives the pool).
        """
        lane %= self.workers
        try:
            return self._submit(lane, _worker_probe).result()
        except BrokenExecutor as error:
            raise WorkerCrashError(f"worker lane {lane} died: {error}") from error

    def apply_delta(self, delta) -> None:
        """Advance every worker lane to the delta's snapshot epoch.

        Blocks until every lane confirmed the new epoch; the caller (the
        service dispatcher) runs this between batches, which is what makes
        it a barrier, and applies the same mutations to the parent engine
        only afterwards.  A lane that dies mid-apply is respawned from the
        parent engine, still at the delta's base epoch, and receives the
        delta again; a lane that keeps dying escalates as
        :class:`~repro.engine.errors.WorkerCrashError`.
        """
        if self._closed:
            raise RuntimeError("the worker pool is closed")
        pending = list(range(self.workers))
        attempts = 0
        while pending:
            generations = {lane: self._generation[lane] for lane in pending}
            futures = {
                lane: self._submit(lane, _worker_apply_delta, delta) for lane in pending
            }
            pending = []
            for lane, future in futures.items():
                try:
                    future.result()
                except BrokenExecutor as error:
                    if attempts >= self.max_chunk_retries:
                        raise WorkerCrashError(
                            f"worker lane {lane} died applying the mutation "
                            f"delta to epoch {delta.new_epoch}"
                        ) from error
                    self._respawn_lane(lane, generations[lane])
                    pending.append(lane)
            attempts += 1

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


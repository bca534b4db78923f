"""Long-lived query service: one worker pool for the whole process lifetime.

The module is longer than the repository's ~600-line guideline because the
service's parts share one dispatcher thread and one lock: admission
control, the FIFO queue, the mutation barrier and shutdown each read the
counters and flags the others write, so they stay in one class.

A :class:`QueryService` is the one way to run batches on worker
processes (``QueryEngine.evaluate_many(executor=service)`` routes a batch
through one):

* the **worker pool** (:class:`~repro.engine.executor.WorkerPool`) starts
  every lane at construction and reuses them for every batch until the
  service closes, so lane startup and worker-local cache warm-up are paid
  once per *process lifetime*;
* every lane starts from the engine's **current** snapshot: a forked lane
  inherits the engine object, any other start method unpickles the engine
  from a private file the parent wrote for that start (see
  ``engine/executor.py`` for the start path and its thread invariant);
* an **async-friendly request queue** fronts the pool: :meth:`QueryService.submit`
  enqueues a batch and immediately returns a :class:`ServiceBatch` handle,
  a single dispatcher thread drains the queue in FIFO order (chunks of one
  batch still run in parallel across the pool), and the blocking
  :meth:`QueryService.evaluate_many` routes through the same queue;
* **dispatch is worker-affine**: each affinity bucket's lane is a stable
  hash of its key (:func:`~repro.engine.executor.affine_partition`), so
  successive batches route a recurring query object to the same worker's
  warm caches;
* the **database is versioned in place**: :meth:`QueryService.apply`
  threads a mutation batch through the same FIFO queue as query batches,
  which makes it a *snapshot barrier* — a batch admitted at epoch ``E``
  sees exactly snapshot ``E``, never a half-applied update.  Live lanes
  advance by applying a small
  :class:`~repro.uncertain.sharedmem.MutationDelta` (touched objects only)
  instead of re-importing the dataset, and each lane's memo stays warm for
  untouched objects (see ``RefinementContext.advance``); a lane that starts
  later starts from the current snapshot and needs no delta;
* **each lane keeps one in-memory pair-bounds memo**: nothing is persisted
  or shared between lanes, so a restarted service, or a respawned lane,
  recomputes the columns it needs — bit-identically, since a column is a
  pure function of its key.

Determinism is inherited unchanged from the executor layer: results are
bit-identical to the serial path for every worker count and batch
composition, and persistent worker caches only ever remove recomputation.

The service is **fault-tolerant** (see the "Failure model" section of
``docs/architecture.md``): the pool supervises its worker lanes and respawns
a crashed worker transparently (the retried chunk is bit-identical by
determinism); ``submit(deadline=...)`` bounds a batch's wall
clock — expired work raises :class:`~repro.engine.errors.DeadlineExceeded`
instead of hanging, and a watchdog terminates+respawns a truly wedged lane;
``max_pending_batches`` / ``max_pending_requests`` bound the dispatcher
queue, rejecting over-limit submits fast with
:class:`~repro.engine.errors.ServiceOverloadedError` while in-flight batches
complete.

Shutdown is deterministic and idempotent: :meth:`QueryService.close` (or the
context manager, or the ``atexit`` fallback for services that are never
closed explicitly) drains the queue, stops the dispatcher and shuts the pool
down.  The closed-check and the enqueue in :meth:`QueryService.submit`
happen atomically under one lock, so a submit racing :meth:`close` either
raises :class:`~repro.engine.errors.ServiceClosedError` or returns a handle
the dispatcher is guaranteed to resolve — batches a non-waiting close
abandoned resolve with :class:`~repro.engine.errors.ServiceClosedError`
instead of stranding their callers.  A request that raises inside a worker
fails only its own batch; the pool and the service survive.
"""

from __future__ import annotations

import atexit
import math
import pickle
import queue
import threading
import time
from concurrent.futures import BrokenExecutor, CancelledError, Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Union

from ..uncertain import UncertainDatabase
from ..uncertain.sharedmem import MutationDelta
from .errors import (
    DeadlineExceeded,
    ServiceClosedError,
    ServiceOverloadedError,
    WorkerCrashError,
)
from .executor import (
    DEFAULT_MAX_CHUNK_RETRIES,
    DEFAULT_WATCHDOG_GRACE_SECONDS,
    BatchReport,
    ExecutorConfig,
    WorkerPool,
    affine_partition,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .engine import QueryEngine
    from .requests import QueryRequest

__all__ = ["QueryService", "ServiceBatch", "MutationTicket"]


class ServiceBatch:
    """Handle to one submitted batch — a future over results and report.

    Returned immediately by :meth:`QueryService.submit`; the batch itself
    runs on the service's worker pool once the dispatcher reaches it.  All
    methods are thread-safe.
    """

    def __init__(self, future: Future):
        self._future = future

    def done(self) -> bool:
        """Whether the batch has finished (successfully or with an error)."""
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> list:
        """Block until the batch completes and return its results.

        Results are in request order, bit-identical to evaluating the same
        requests serially.  Re-raises the first chunk failure if the batch
        errored, and :class:`TimeoutError` if ``timeout`` elapses first.
        """
        return self._future.result(timeout)[0]

    def report(self, timeout: Optional[float] = None) -> BatchReport:
        """Block until the batch completes and return its merged report.

        The report's ``elapsed_seconds`` measures submit-to-completion
        latency (queue wait included) and ``mode`` is ``"process"``.
        """
        return self._future.result(timeout)[1]

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The batch's failure, or ``None`` once it completed successfully."""
        return self._future.exception(timeout)

    def add_done_callback(self, callback) -> None:
        """Schedule ``callback(self)`` for when the batch resolves.

        Invoked immediately when the batch already resolved, otherwise from
        the thread that resolves it (the service dispatcher) — callers that
        need to re-enter an event loop must marshal themselves (e.g. via
        ``loop.call_soon_threadsafe``), which is exactly how the HTTP
        gateway (``repro/gateway/``) bridges a batch into asyncio without
        blocking a loop thread on :meth:`result`.  Callback exceptions are
        swallowed and logged by :mod:`concurrent.futures`, matching
        ``Future.add_done_callback`` semantics.
        """
        self._future.add_done_callback(lambda _future: callback(self))


class MutationTicket:
    """Handle to one submitted mutation batch — a future over the new epoch.

    Returned immediately by :meth:`QueryService.submit_mutations`; the
    mutations are applied by the dispatcher once every earlier batch has
    finished, so the resolved epoch is exactly the snapshot all later
    batches see.  All methods are thread-safe.
    """

    def __init__(self, future: Future):
        self._future = future

    def done(self) -> bool:
        """Whether the mutation batch has been applied (or failed)."""
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> int:
        """Block until the mutations are applied; return the new epoch.

        Re-raises the application failure if the batch errored (e.g. a
        ``ValueError`` from validation, or a worker-pool failure), and
        :class:`TimeoutError` if ``timeout`` elapses first.
        """
        return self._future.result(timeout)

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The batch's failure, or ``None`` once it applied successfully."""
        return self._future.exception(timeout)

    def add_done_callback(self, callback) -> None:
        """Schedule ``callback(self)`` for when the mutations resolve.

        Same threading contract as :meth:`ServiceBatch.add_done_callback`:
        the callback runs on the dispatcher thread (or immediately when
        already resolved), so event-loop callers must marshal themselves.
        """
        self._future.add_done_callback(lambda _future: callback(self))


@dataclass
class _Job:
    """One queued batch: requests, their lane-pinned chunks, and the future."""

    requests: list
    chunks: list[list[int]]
    lanes: list[int]
    future: Future = field(default_factory=Future)
    enqueued_at: float = 0.0
    #: Absolute ``time.time()`` epoch the batch must finish by (``None`` =
    #: no deadline).  Epoch-based so the same number is comparable in the
    #: dispatcher, the parent-side watchdog and the worker processes.
    deadline_epoch: Optional[float] = None


@dataclass
class _MutationJob:
    """One queued mutation batch: the (unresolved) mutations and a future.

    Travels through the same FIFO queue as :class:`_Job`, which is the whole
    trick: the dispatcher applies it after every earlier batch completed and
    before any later batch starts — a snapshot barrier without extra locks.
    """

    mutations: tuple
    future: Future = field(default_factory=Future)


class QueryService:
    """A persistent front-end over one engine, its pool and its dataset.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.engine.QueryEngine` to serve, or an
        :class:`~repro.uncertain.UncertainDatabase` (a default engine is
        built over it).
    executor:
        Optional :class:`~repro.engine.executor.ExecutorConfig` supplying
        the worker count (``effective_workers``; the default derives it
        from :func:`os.cpu_count`) and start method.  A service always owns
        a process pool, even of one worker; use ``engine.evaluate_many``
        directly for serial evaluation.
    atexit_cleanup:
        Register an :mod:`atexit` fallback so a service never explicitly
        closed still shuts its pool down at interpreter exit.
        :meth:`close` unregisters it.
    max_pending_batches / max_pending_requests:
        Admission-control bounds on work that has been submitted but not
        yet finished (queued *and* in-flight).  A submit that would exceed
        either bound raises
        :class:`~repro.engine.errors.ServiceOverloadedError` immediately —
        backpressure instead of an unbounded queue.  ``None`` (default)
        leaves that bound off.
    max_chunk_retries:
        How many times a chunk whose worker crashed is re-driven on the
        respawned lane before the batch fails with
        :class:`~repro.engine.errors.WorkerCrashError` (default 3).
    watchdog_grace:
        Seconds past a batch's deadline before the wall-clock watchdog
        SIGKILLs and respawns lanes still holding its chunks (default 2.0).
        Only armed for batches submitted with a deadline.

    Example
    -------
    ::

        with QueryService(engine, ExecutorConfig(workers=4)) as service:
            for batch in request_stream:          # one pool for all batches
                results = service.evaluate_many(batch)

    Thread safety: :meth:`submit`, :meth:`evaluate_many` and :meth:`close`
    may be called from any thread; batches execute in FIFO submission order.
    """

    def __init__(
        self,
        engine: Union["QueryEngine", UncertainDatabase],
        executor: Optional[ExecutorConfig] = None,
        *,
        atexit_cleanup: bool = True,
        max_pending_batches: Optional[int] = None,
        max_pending_requests: Optional[int] = None,
        max_chunk_retries: int = DEFAULT_MAX_CHUNK_RETRIES,
        watchdog_grace: float = DEFAULT_WATCHDOG_GRACE_SECONDS,
    ):
        from .engine import QueryEngine

        for name, bound in (
            ("max_pending_batches", max_pending_batches),
            ("max_pending_requests", max_pending_requests),
        ):
            if bound is not None and (not isinstance(bound, int) or bound < 1):
                raise ValueError(f"{name} must be a positive integer or None")
        if isinstance(engine, UncertainDatabase):
            engine = QueryEngine(engine)
        self.engine = engine
        self.config = executor if executor is not None else ExecutorConfig()
        # lanes start here, before the dispatcher thread exists
        self._pool = WorkerPool(
            engine,
            self.config.effective_workers,
            self.config.start_method,
            max_chunk_retries=max_chunk_retries,
            watchdog_grace=watchdog_grace,
        )
        #: Merged :class:`~repro.engine.executor.BatchReport` of the most
        #: recently *completed* batch (``None`` before the first one).
        self.last_batch_report: Optional[BatchReport] = None
        self._jobs: "queue.SimpleQueue[Optional[_Job]]" = queue.SimpleQueue()
        self._submit_lock = threading.Lock()
        self._closed = False
        self._abandoned = False
        self._max_pending_batches = max_pending_batches
        self._max_pending_requests = max_pending_requests
        # admission counters: submitted-but-unfinished work, maintained
        # under _submit_lock (incremented by submit, decremented by the
        # dispatcher when a job's future resolves)
        self._pending_batches = 0
        self._pending_requests = 0
        self._seen_pids: set[int] = set()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-query-service", daemon=True
        )
        self._dispatcher.start()
        self._atexit_registered = atexit_cleanup
        if atexit_cleanup:
            atexit.register(self.close)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run; a closed service rejects submits."""
        return self._closed

    @property
    def workers(self) -> int:
        """Size of the persistent worker pool."""
        return self._pool.workers

    @property
    def epoch(self) -> int:
        """Snapshot epoch of the database currently being served.

        Starts at the epoch of the database the service was built over and
        advances by one per applied mutation batch (:meth:`apply`).  Read
        from the dispatcher's point of view this may lag a just-submitted
        mutation — the authoritative epoch for a mutation batch is the one
        its :class:`MutationTicket` resolves to.
        """
        return self.engine.database.epoch

    @property
    def worker_pids(self) -> tuple[int, ...]:
        """Distinct worker pids observed across all completed batches.

        Bounded by :attr:`workers` plus :attr:`worker_respawns` for the
        service's whole lifetime — one pool serves every batch, and only
        supervision replacing a crashed worker ever adds a pid.
        """
        # the dispatcher rebinds _seen_pids atomically instead of mutating
        # it, so this snapshot can never observe a set mid-update
        return tuple(sorted(self._seen_pids))

    @property
    def worker_respawns(self) -> int:
        """Crashed worker lanes the pool has respawned over its lifetime."""
        return self._pool.respawns

    @property
    def pending_batches(self) -> int:
        """Batches submitted but not yet finished (queued + in flight)."""
        return self._pending_batches

    @property
    def pending_requests(self) -> int:
        """Requests submitted but not yet finished (queued + in flight)."""
        return self._pending_requests

    @property
    def payload_nbytes(self) -> int:
        """Bytes of the engine pickle behind the latest lane start.

        0 under ``fork``, where a lane inherits the engine instead.
        """
        return self._pool.payload_nbytes

    def warm(self) -> None:
        """Wait until every worker lane has started.

        Lanes start at construction; this blocks until each one answers a
        probe, so front-ends (the HTTP gateway) know every lane is up before
        they accept traffic.  A lane that died while starting raises
        :class:`~repro.engine.errors.WorkerCrashError`.  Idempotent; costs
        one probe round-trip per lane.
        """
        if self._closed:
            raise ServiceClosedError("the service is closed")
        for lane in range(self.workers):
            self._pool.probe(lane)

    def probe_workers(self) -> dict:
        """One worker's self-report: ``pid``, ``num_objects`` and ``epoch``.

        Workers are interchangeable (they all start from the same engine),
        so a single report characterises the pool.  A dead lane raises
        :class:`~repro.engine.errors.WorkerCrashError`.
        """
        if self._closed:
            raise ServiceClosedError("the service is closed")
        return self._pool.probe()

    # ------------------------------------------------------------------ #
    # request queue
    # ------------------------------------------------------------------ #
    def submit(
        self,
        requests: Sequence["QueryRequest"],
        deadline: Optional[float] = None,
        deadline_epoch: Optional[float] = None,
    ) -> ServiceBatch:
        """Enqueue a batch and return a :class:`ServiceBatch` immediately.

        The batch is partitioned here into one chunk per lane and executed
        by the dispatcher in FIFO order; chunks run in parallel across the
        persistent pool.  Each request's lane is a stable hash of its
        affinity key (:func:`~repro.engine.executor.affine_partition`), so a
        recurring query object lands on the worker whose caches served it
        last batch.

        ``deadline`` (seconds from now, positive and finite) bounds the
        batch's wall clock, queue wait included: work past the deadline
        fails with :class:`~repro.engine.errors.DeadlineExceeded` — checked
        in the dispatcher before the batch starts, between requests and
        every refinement iteration inside the workers, and by a hard
        watchdog that SIGKILLs+respawns a lane wedged past deadline +
        grace.  ``deadline_epoch`` is the absolute form (a ``time.time()``
        epoch, mutually exclusive with ``deadline``) for callers that fix
        the budget when a request *arrives* rather than when it is
        submitted — e.g. the HTTP gateway converting a client
        ``timeout_ms``.  Both are validated eagerly: a non-positive or
        non-finite ``deadline``, or a ``deadline_epoch`` that already lies
        in the past, raises ``ValueError`` here instead of enqueueing a
        batch that could only ever resolve
        :class:`~repro.engine.errors.DeadlineExceeded`.

        Raises :class:`~repro.engine.errors.ServiceClosedError` once the
        service is closed, and
        :class:`~repro.engine.errors.ServiceOverloadedError` when admission
        control would be exceeded (the batch is not enqueued; in-flight
        work is unaffected).
        """
        requests = list(requests)
        if deadline is not None and deadline_epoch is not None:
            raise ValueError("pass either deadline or deadline_epoch, not both")
        if deadline is not None and not (
            math.isfinite(deadline) and deadline > 0
        ):
            raise ValueError(
                f"deadline must be positive finite seconds, got {deadline!r}"
            )
        if deadline_epoch is not None:
            if not (
                isinstance(deadline_epoch, (int, float))
                and math.isfinite(deadline_epoch)
            ):
                raise ValueError(
                    f"deadline_epoch must be a finite epoch, got {deadline_epoch!r}"
                )
            # eager expiry check: an already-expired deadline could only ever
            # resolve DeadlineExceeded — fail the caller now, before the
            # batch occupies queue capacity
            if deadline_epoch <= time.time():
                raise ValueError(
                    f"deadline_epoch {deadline_epoch!r} already expired"
                )
        chunks, lanes = affine_partition(requests, self._pool.workers)
        job = _Job(requests=requests, chunks=chunks, lanes=lanes)
        with self._submit_lock:
            if self._closed:
                raise ServiceClosedError("cannot submit to a closed QueryService")
            if (
                self._max_pending_batches is not None
                and self._pending_batches >= self._max_pending_batches
            ):
                raise ServiceOverloadedError(
                    f"service at max_pending_batches={self._max_pending_batches}"
                )
            if (
                self._max_pending_requests is not None
                and self._pending_requests + len(requests)
                > self._max_pending_requests
            ):
                raise ServiceOverloadedError(
                    f"{len(requests)} requests would exceed "
                    f"max_pending_requests={self._max_pending_requests} "
                    f"({self._pending_requests} already pending)"
                )
            self._pending_batches += 1
            self._pending_requests += len(requests)
            job.enqueued_at = time.perf_counter()
            if deadline is not None:
                job.deadline_epoch = time.time() + deadline
            elif deadline_epoch is not None:
                job.deadline_epoch = float(deadline_epoch)
            self._jobs.put(job)
        return ServiceBatch(job.future)

    def evaluate_many(
        self,
        requests: Sequence["QueryRequest"],
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
        deadline_epoch: Optional[float] = None,
    ) -> list:
        """Evaluate a batch through the request queue, blocking until done.

        Same contract as :meth:`QueryEngine.evaluate_many` — results in
        request order, bit-identical to the serial path — but dispatched
        onto the service's persistent pool.  The merged report lands on
        :attr:`last_batch_report` and on the engine's
        ``last_batch_report`` (with ``mode="process"``).  ``deadline`` /
        ``deadline_epoch`` are forwarded to :meth:`submit`; ``timeout``
        only bounds this call's blocking wait (the batch keeps running
        server-side when it fires).
        """
        handle = self.submit(
            requests, deadline=deadline, deadline_epoch=deadline_epoch
        )
        return handle.result(timeout)

    def submit_mutations(self, mutations) -> MutationTicket:
        """Enqueue a mutation batch; return a :class:`MutationTicket` now.

        The mutations ride the same FIFO queue as query batches, so they
        form a **snapshot barrier**: every batch submitted before this call
        runs against the pre-mutation snapshot, every batch submitted after
        the ticket resolves runs against the new one, and nothing ever
        observes a half-applied update.  The dispatcher resolves the batch
        against the current snapshot
        (:meth:`~repro.uncertain.UncertainDatabase.resolve_mutations`),
        ships a :class:`~repro.uncertain.sharedmem.MutationDelta` — touched
        objects only — to every worker lane, applies the same resolved
        batch parent-side, and resolves the ticket with the new epoch.

        Mutations are control-plane work: they bypass
        ``max_pending_batches`` / ``max_pending_requests`` admission (they
        must be able to land even under query backpressure).  Raises
        :class:`~repro.engine.errors.ServiceClosedError` once the service
        is closed.  A mutation that fails *after* reaching the workers
        (e.g. the pool died mid-apply) can leave workers ahead of the
        parent — treat a ticket that resolves with a pool error as fatal
        and close the service.
        """
        job = _MutationJob(mutations=tuple(mutations))
        with self._submit_lock:
            if self._closed:
                raise ServiceClosedError("cannot mutate a closed QueryService")
            self._jobs.put(job)
        return MutationTicket(job.future)

    def apply(self, mutations, timeout: Optional[float] = None) -> int:
        """Apply a mutation batch, blocking until every layer advanced.

        Convenience wrapper over :meth:`submit_mutations` — returns the new
        snapshot epoch once the parent engine, every worker lane and the
        candidate index all serve the new snapshot.
        ``timeout`` bounds only this call's wait; the mutation itself is
        applied by the dispatcher regardless.
        """
        return self.submit_mutations(mutations).result(timeout)

    # ------------------------------------------------------------------ #
    # dispatcher (single background thread)
    # ------------------------------------------------------------------ #
    def _job_finished(self, job: _Job) -> None:
        """Release a job's admission-control reservation (future resolved)."""
        with self._submit_lock:
            self._pending_batches -= 1
            self._pending_requests -= len(job.requests)

    def _run_mutation_job(self, job: _MutationJob) -> None:
        """Apply one mutation batch: workers first, then the parent engine.

        Ordering: the delta is built from the *current* snapshot, the pool
        barrier advances every lane, and only then does the parent
        engine apply — so a failure anywhere before the parent apply leaves
        the parent (and all admission/partitioning state) on the old epoch.
        """
        if not job.future.set_running_or_notify_cancel():
            return
        if self._abandoned:
            job.future.set_exception(
                ServiceClosedError("the service closed before this mutation ran")
            )
            return
        try:
            database = self.engine.database
            resolved = database.resolve_mutations(job.mutations)
            self._pool.apply_delta(
                MutationDelta(
                    base_epoch=database.epoch,
                    new_epoch=database.epoch + 1,
                    shell=pickle.dumps(resolved),
                )
            )
            self.engine.apply_mutations(resolved)
        except BaseException as error:
            if self._abandoned and isinstance(
                error, (BrokenExecutor, CancelledError, WorkerCrashError)
            ):
                job.future.set_exception(
                    ServiceClosedError(
                        "the service closed while this mutation was running"
                    )
                )
            else:
                job.future.set_exception(error)
            return
        job.future.set_result(self.engine.database.epoch)

    def _dispatch_loop(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                break
            if isinstance(job, _MutationJob):
                self._run_mutation_job(job)
                continue
            try:
                if not job.future.set_running_or_notify_cancel():
                    continue  # cancelled before it started
                if self._abandoned:
                    job.future.set_exception(
                        ServiceClosedError(
                            "the service closed before this batch ran"
                        )
                    )
                    continue
                if (
                    job.deadline_epoch is not None
                    and time.time() >= job.deadline_epoch
                ):
                    job.future.set_exception(
                        DeadlineExceeded("batch deadline expired while queued")
                    )
                    continue
                try:
                    results, chunk_stats, faults = self._pool.run_chunks(
                        job.requests,
                        job.chunks,
                        lanes=job.lanes,
                        deadline_epoch=job.deadline_epoch,
                    )
                except BaseException as error:
                    if self._abandoned and isinstance(
                        error, (BrokenExecutor, CancelledError, WorkerCrashError)
                    ):
                        # close(wait=False) tore the pool down underneath
                        # this batch; the executor-level failure is an
                        # artefact of that teardown, not a real crash —
                        # surface the close instead
                        job.future.set_exception(
                            ServiceClosedError(
                                "the service closed while this batch was running"
                            )
                        )
                    else:
                        job.future.set_exception(error)
                    continue
                report = BatchReport(
                    mode="process",
                    workers=self._pool.workers,
                    num_requests=len(job.requests),
                    elapsed_seconds=time.perf_counter() - job.enqueued_at,
                    chunks=tuple(chunk_stats),
                    worker_respawns=faults["worker_respawns"],
                    chunk_retries=faults["chunk_retries"],
                    epoch=self.engine.database.epoch,
                )
                self._seen_pids = self._seen_pids | set(report.worker_pids)
                self.last_batch_report = report
                self.engine.last_batch_report = report
                job.future.set_result((results, report))
            finally:
                self._job_finished(job)

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    def close(self, wait: bool = True) -> None:
        """Shut the service down (idempotent; also the ``atexit`` fallback).

        ``wait=True`` (default) drains the queue — already-submitted batches
        complete and their handles resolve — then stops the dispatcher,
        shuts the pool down (no worker processes remain).
        ``wait=False`` abandons pending work: queued batches resolve with
        :class:`~repro.engine.errors.ServiceClosedError`, unstarted chunks
        are cancelled, and the in-flight batch (if any) resolves with its
        results when it beats the teardown, otherwise with
        :class:`~repro.engine.errors.ServiceClosedError` — no handle is
        ever left unresolved.  Subsequent :meth:`submit` calls raise
        :class:`~repro.engine.errors.ServiceClosedError` (a subclass of
        ``RuntimeError``).
        """
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
            if not wait:
                # the dispatcher fails queued jobs fast instead of running
                # them against a pool that is being torn down underneath it
                self._abandoned = True
            self._jobs.put(None)  # under the lock: nothing enqueues after it
        if wait:
            self._dispatcher.join()
        self._pool.close(wait=wait, cancel_pending=not wait)
        if self._atexit_registered:
            atexit.unregister(self.close)
            self._atexit_registered = False

    def __enter__(self) -> "QueryService":
        """Context-manager entry: the service itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: close the service, draining the queue."""
        self.close(wait=True)

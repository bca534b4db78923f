"""The benchmark's own span recorder.

The program under test has no tracing of its own yet (ROADMAP item 2), so
the per-layer numbers come from wrappers this module installs *around* the
program's public callables for the duration of a traced pass: class methods
are patched on the class, module-level functions in the namespace of the
module that calls them (``repro.core.idca.pdom_bounds_csr``, not
``repro.core.kernels.pdom_bounds_csr`` — the caller bound the name at
import).  A target that no longer exists is skipped and listed in
:attr:`Recorder.missing`, so a refactoring of the program shows up as a
missing layer number, never as a crashed benchmark.

A span is ``[name, start, end, parent, op]``; the layer is the part of the
name before the first dot.  Spans nest per thread (the parent is always on
the same thread); *detached* spans carry no parent and take no part in
self-time accounting — they describe waiting (a client awaiting its HTTP
reply, a batch between ``submit`` and its future resolving) whose time is
covered by spans on other threads.  Everything stays in memory until
:meth:`Recorder.write_jsonl`.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import threading
import weakref
from time import perf_counter

OP = "op"  # name of the root span the harness opens around one operation

_LIVE: "weakref.WeakSet[Recorder]" = weakref.WeakSet()


def _disable_in_child() -> None:
    # worker lanes forked while a recorder is installed inherit the patched
    # classes; spans inside workers are a later issue, so they record nothing
    for recorder in list(_LIVE):
        recorder.enabled = False


os.register_at_fork(after_in_child=_disable_in_child)


class _ThreadLog:
    __slots__ = ("spans", "stack", "op", "thread")

    def __init__(self, thread: str):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.thread = thread


class Recorder:
    """In-memory span and counter store of one traced pass."""

    def __init__(self) -> None:
        self.enabled = False
        self.counters: collections.Counter = collections.Counter()
        self.missing: list[str] = []
        self.pending_submits: collections.deque = collections.deque()
        self.ops_started = 0.0  # perf_counter() when the traced operations began
        self._tls = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._undo: list = []
        _LIVE.add(self)

    # -- recording ------------------------------------------------------ #
    def _log(self) -> _ThreadLog:
        try:
            return self._tls.log
        except AttributeError:
            log = self._tls.log = _ThreadLog(threading.current_thread().name)
            with self._lock:
                self._logs.append(log)
            return log

    def begin_op(self, op: int) -> list:
        """Open the root span of operation ``op`` on the calling thread."""
        log = self._log()
        log.op = op
        span = [OP, 0.0, 0.0, -1, op]
        log.stack.append(len(log.spans))
        log.spans.append(span)
        span[1] = perf_counter()
        return span

    def end_op(self, span: list) -> None:
        span[2] = perf_counter()
        log = self._log()
        log.stack.pop()
        log.op = -1

    def record(self, name: str, start: float, end: float, op: int = -1) -> None:
        """Add a finished *detached* span (no parent, no self time)."""
        self._log().spans.append([name, start, end, None, op])

    # -- export --------------------------------------------------------- #
    def spans(self) -> list[dict]:
        """Every span as a dict with process-wide ids (parents resolved)."""
        out = []
        for log in self._logs:
            offset = len(out)
            for local_id, (name, start, end, parent, op) in enumerate(log.spans):
                out.append(
                    {
                        "id": offset + local_id,
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": None if parent is None or parent < 0 else offset + parent,
                        "detached": parent is None,
                        "op": op,
                        "thread": log.thread,
                    }
                )
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans():
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")

    # -- patching ------------------------------------------------------- #
    def install(self) -> None:
        """Wrap every target in :data:`TARGETS`; enable recording."""
        for owner_path, attr, name, before, after in TARGETS:
            try:
                owner = _resolve(owner_path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            own = attr in vars(owner)
            setattr(owner, attr, _wrap(self, name, original, before, after))
            self._undo.append((owner, attr, original if own else None))
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def _resolve(path: str):
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    for part in filter(None, qualname.split(".")):
        owner = getattr(owner, part)
    return owner


def _wrap(recorder: Recorder, name: str, fn, before, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        log = recorder._log()
        stack = log.stack
        token = before(args) if before is not None else None
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, log.op]
        stack.append(len(log.spans))
        log.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            stack.pop()
        if after is not None:
            after(recorder, span, args, result, token)
        return result

    return wrapper


# --------------------------------------------------------------------- #
# hooks: counts taken at the same boundaries as the spans
# --------------------------------------------------------------------- #
def _after_submit(recorder, span, args, batch, _token) -> None:
    submitted = span[1]
    recorder.pending_submits.append(submitted)
    batch.add_done_callback(
        lambda _done: recorder.record("service.batch", submitted, perf_counter())
    )


#: ``ChunkStats`` fields summed over every chunk of the traced pass.
CHUNK_SUMS = (
    "pair_bounds_hits",
    "pair_bounds_misses",
    "shared_hits",
    "shared_misses",
    "shared_publishes",
    "shared_rejected",
    "shared_duplicates",
    "claim_waits",
    "kernel_seconds",
)


def _after_run_chunks(recorder, span, args, result, _token) -> None:
    _results, chunk_stats, faults = result
    counters = recorder.counters
    # the dispatcher is one FIFO thread, so the n-th run_chunks call serves
    # the n-th submit; popped at exit, by when that submit's hook has run
    if recorder.pending_submits:
        counters["service.queue_wait_s"] += span[1] - recorder.pending_submits.popleft()
    busiest = max((stats.seconds for stats in chunk_stats), default=0.0)
    counters["service.dispatch_s"] += (span[2] - span[1]) - busiest
    counters["service.lane_busy_s"] += sum(stats.seconds for stats in chunk_stats)
    counters["service.run_chunks_s"] += span[2] - span[1]
    counters["service.batches"] += 1
    counters["service.chunks"] += len(chunk_stats)
    counters["service.respawns"] += faults["worker_respawns"]
    counters["service.chunk_retries"] += faults["chunk_retries"]
    for field in CHUNK_SUMS:
        counters["chunk." + field] += sum(getattr(s, field) for s in chunk_stats)
    counters["chunk.trees"] = max(
        [counters["chunk.trees"], *(stats.trees for stats in chunk_stats)]
    )


def _after_start_run(recorder, span, args, run, _token) -> None:
    recorder.counters["idca.influence"] += run.result.num_influence


def _after_step(recorder, span, args, stepped, _token) -> None:
    if stepped:
        recorder.counters["context.memo_s"] += args[0].result.iterations[-1].cache_seconds
    else:
        span[0] = "idca.step_noop"  # a finished run: no iteration happened


def _after_refine(recorder, span, args, steps, _token) -> None:
    counters = recorder.counters
    counters["scheduler.steps"] += steps
    counters["scheduler.refines"] += 1
    # every run is created for one query and refined once, so its iteration
    # count is the number of steps this call spent on it
    counters["scheduler.undecided_steps"] += sum(
        run.iteration
        for run in args[1]
        if run.result.decision is None and 0 < run.max_iterations <= run.iteration
    )


def _after_kernel(recorder, span, args, _result, _token) -> None:
    regions, target_regions, reference_regions = args[0], args[3], args[4]
    recorder.counters["kernels.cells"] += (
        target_regions.shape[0] * reference_regions.shape[0] * regions.shape[0]
    )


def _after_count_bounds(recorder, span, args, result, _token) -> None:
    recorder.counters["aggregate.cells"] += result[0].size


def _before_advance(args) -> int:
    return len(args[0].pair_bounds_cache)


def _after_advance(recorder, span, args, _result, entries_before) -> None:
    recorder.counters["mutation.memo_before"] += entries_before
    recorder.counters["mutation.memo_after"] += len(args[0].pair_bounds_cache)


_ENGINE = "repro.engine.engine:QueryEngine"
_IDCA = "repro.core.idca"
_SERVER = "repro.gateway.server"
_SCAN = "repro.engine.candidates:ScanCandidateSource"
_RTREE = "repro.engine.candidates:RTreeCandidateSource"

#: ``(owner, attribute, span name, before hook, after hook)``
TARGETS = (
    (_SERVER, "decode_query", "gateway.decode", None, None),
    (_SERVER, "request_key", "gateway.decode", None, None),
    (_SERVER, "encode_result", "gateway.encode", None, None),
    (_SERVER, "canonical_json", "gateway.encode", None, None),
    ("repro.engine.service:QueryService", "__init__", "service.spawn", None, None),
    ("repro.engine.service:QueryService", "warm", "service.warm", None, None),
    ("repro.engine.service:QueryService", "submit", "service.submit", None, _after_submit),
    ("repro.engine.executor:WorkerPool", "run_chunks", "service.run_chunks", None, _after_run_chunks),
    (_SCAN, "knn_candidates", "candidates.knn", None, None),
    (_SCAN, "range_classify", "candidates.range", None, None),
    (_SCAN, "all_candidates", "candidates.all", None, None),
    (_RTREE, "knn_candidates", "candidates.knn", None, None),
    (_RTREE, "range_classify", "candidates.range", None, None),
    (_RTREE, "all_candidates", "candidates.all", None, None),
    ("repro.core.idca:IDCA", "start_run", "idca.start_run", None, _after_start_run),
    (_IDCA, "complete_domination_filter", "idca.domfilter", None, None),
    ("repro.core.idca:IDCARun", "step", "idca.step", None, _after_step),
    ("repro.engine.scheduler:RefinementScheduler", "refine", "scheduler.refine", None, _after_refine),
    ("repro.uncertain.decomposition:DecompositionTree", "__post_init__", "decomposition.tree_init", None, None),
    ("repro.uncertain.decomposition:DecompositionTree", "partitions_arrays", "decomposition.partitions", None, None),
    (_IDCA, "csr_partitions_batch", "decomposition.csr_batch", None, None),
    (_IDCA, "pdom_bounds_csr", "kernels.pdom_bounds_csr", None, _after_kernel),
    (_IDCA, "domination_count_bounds_batch", "aggregate.count_bounds", None, _after_count_bounds),
    (_IDCA, "combine_weighted_bounds_arrays", "aggregate.combine", None, None),
    (_ENGINE, "knn", "engine.knn", None, None),
    (_ENGINE, "rknn", "engine.rknn", None, None),
    (_ENGINE, "range", "engine.range", None, None),
    (_ENGINE, "ranking", "engine.ranking", None, None),
    (_ENGINE, "inverse_ranking", "engine.inverse_ranking", None, None),
    ("repro.engine.service:QueryService", "apply", "mutation.service_apply", None, None),
    (_ENGINE, "apply_mutations", "mutation.engine_apply", None, None),
    ("repro.uncertain.base:UncertainDatabase", "apply", "mutation.apply", None, None),
    ("repro.engine.context:RefinementContext", "advance", "mutation.context_advance", _before_advance, _after_advance),
    (_RTREE, "advance", "mutation.index_advance", None, None),
    ("repro.uncertain.base:UncertainDatabase", "share_memory", "sharedmem.export", None, None),
)


# --------------------------------------------------------------------- #
# self time
# --------------------------------------------------------------------- #
def self_seconds(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: its duration minus its direct children's.

    Detached spans are left out — they measure waiting that spans on other
    threads account for.
    """
    own = {
        span["id"]: span["end"] - span["start"]
        for span in spans
        if not span["detached"]
    }
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def by_name(spans: list[dict]) -> dict[str, dict]:
    """Per span name: call count, inclusive seconds and self seconds."""
    own = self_seconds(spans)
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(span["name"], {"calls": 0, "seconds": 0.0, "self": 0.0})
        row["calls"] += 1
        row["seconds"] += span["end"] - span["start"]
        row["self"] += own.get(span["id"], 0.0)
    return table

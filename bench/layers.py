"""Per-layer metrics of one traced pass.

A layer is a module of the program (``gateway``, ``service``, ``boundstore``,
``context``, ``candidates``, ``idca``, ``scheduler``, ``decomposition``,
``kernels``, ``aggregate``, ``engine``, ``mutation``, ``sharedmem``).  Times
are means **per traced operation** in ms, counts are totals over the traced
operations (a fixed number per workload, so for one seed they repeat
exactly), and ``<layer>.share`` is the layer's self time divided by the
summed wall time of the traced operations.

Inside worker processes only what ``ChunkStats`` already carries is visible
(kernel seconds, memo and store counters); spans inside workers are a later
issue.  A layer that does nothing on a workload reports 0.
"""

from __future__ import annotations

import math
import statistics

from . import tracing

#: layers with a ``.share``
TIMED_LAYERS = (
    "gateway",
    "service",
    "context",
    "candidates",
    "idca",
    "scheduler",
    "decomposition",
    "kernels",
    "aggregate",
    "engine",
    "mutation",
)

KINDS = ("knn", "rknn", "range", "ranking", "inverse_ranking")
P90_MIN_SAMPLES = 100  # ten samples beyond the percentile


def ms(seconds: float) -> float:
    return seconds * 1000.0


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def workload_specific(timed) -> dict[str, float]:
    """The issue's end-to-end numbers that exist on some workloads only.

    Taken from the *untraced* timed phase.  A number a workload does not
    produce (no mutations, no request of that kind, fewer than 100 samples
    for a p90) is reported as 0, which here means "not applicable".
    """
    out = {}
    queries = timed.seconds()
    out["query_p90_ms"] = ms(p90(queries)) if len(queries) >= P90_MIN_SAMPLES else 0.0
    mutates = timed.seconds("mutate")
    out["mutate_p50_ms"] = ms(statistics.median(mutates)) if mutates else 0.0
    out["mutate_p90_ms"] = ms(p90(mutates)) if len(mutates) >= P90_MIN_SAMPLES else 0.0
    for kind in KINDS:
        samples = timed.seconds(kind)
        out[f"{kind}_p50_ms"] = ms(statistics.median(samples)) if samples else 0.0
    out["failed_share"] = _ratio(timed.failed, timed.attempted)
    return out


def overhead_share(traced: dict, reference: dict) -> float:
    """Traced over untraced time of the same operations, minus one.

    The median of the per-operation ratios: one slow operation in either
    pass (a page-fault storm, a preempted lane) must not pass for overhead.
    """
    ratios = [seconds / reference[i] for i, seconds in traced.items() if reference.get(i)]
    return statistics.median(ratios) - 1.0 if ratios else 0.0


def per_layer(recorder, traced, workload, context_stats) -> dict[str, float]:
    """Every per-layer metric from one traced pass.

    ``traced`` is the traced :class:`~bench.workloads.Phase`; ``context_stats`` the serial engine's
    ``context.stats()`` before and after the traced pass (``None`` where
    the memo lives in worker lanes).
    """
    # spans before the first traced operation belong to set-up
    # (share_memory(), the lane spawn), not to any layer's share
    everything = recorder.spans()
    setup = tracing.by_name([s for s in everything if s["start"] < recorder.ops_started])
    spans = [s for s in everything if s["start"] >= recorder.ops_started]
    names = tracing.by_name(spans)
    counters = recorder.counters
    counts = traced.counts
    ops = max(1, len([s for s in spans if s["name"] == tracing.OP]))
    op_wall = sum(s["end"] - s["start"] for s in spans if s["name"] == tracing.OP)

    def seconds(*span_names: str) -> float:
        return sum(names.get(name, {}).get("seconds", 0.0) for name in span_names)

    def calls(*span_names: str) -> int:
        return sum(names.get(name, {}).get("calls", 0) for name in span_names)

    def per_op(total_seconds: float) -> float:
        return ms(total_seconds) / ops

    layer_self = dict.fromkeys(TIMED_LAYERS, 0.0)
    for name, row in names.items():
        layer = name.partition(".")[0]
        # a caller blocked in service.apply is waiting for the dispatcher
        # thread, whose own spans carry that time
        if layer in layer_self and name != "mutation.service_apply":
            layer_self[layer] += row["self"]
    memo_seconds = counters["context.memo_s"]
    layer_self["context"] += memo_seconds  # measured inside IDCARun.step ...
    layer_self["idca"] -= memo_seconds  # ... so it is not idca's own time
    layer_self["kernels"] += counters["chunk.kernel_seconds"]

    out: dict[str, float] = {}
    # gateway
    batch_spans = [s for s in spans if s["name"] == "service.batch"]
    latencies = traced.seconds()
    out["gateway.requests"] = counts["gateway.requests"]
    out["gateway.decode_ms"] = per_op(seconds("gateway.decode"))
    out["gateway.encode_ms"] = per_op(seconds("gateway.encode"))
    out["gateway.overhead_ms"] = (
        ms(
            statistics.fmean(latencies)
            - statistics.fmean(s["end"] - s["start"] for s in batch_spans)
        )
        if counts["gateway.requests"] and batch_spans and latencies
        else 0.0
    )
    out["gateway.coalesce_hit_ratio"] = _ratio(
        counts["gateway.coalesce_hits"], counts["gateway.requests"]
    )
    out["gateway.non200"] = counts["gateway.non200"]
    # service
    batches = counters["service.batches"]
    out["service.batches"] = batches
    out["service.queue_wait_ms"] = ms(_ratio(counters["service.queue_wait_s"], batches))
    out["service.dispatch_ms"] = ms(_ratio(counters["service.dispatch_s"], batches))
    out["service.lane_busy_share"] = _ratio(
        counters["service.lane_busy_s"], workload.workers * traced.wall
    )
    out["service.chunks_per_batch"] = _ratio(counters["service.chunks"], batches)
    out["service.respawns"] = counters["service.respawns"]
    out["service.chunk_retries"] = counters["service.chunk_retries"]
    out["service.spawn_s"] = sum(
        setup.get(name, {}).get("seconds", 0.0) for name in ("service.spawn", "service.warm")
    )
    # boundstore (counters the lanes report)
    out["boundstore.shared_hit_ratio"] = _ratio(
        counters["chunk.shared_hits"],
        counters["chunk.shared_hits"] + counters["chunk.shared_misses"],
    )
    out["boundstore.publishes"] = counters["chunk.shared_publishes"]
    out["boundstore.rejected"] = counters["chunk.shared_rejected"]
    out["boundstore.duplicates"] = counters["chunk.shared_duplicates"]
    out["boundstore.claim_waits"] = counters["chunk.claim_waits"]
    # context
    if context_stats is not None:
        before, after = context_stats
        hits = after["pair_bounds_hits"] - before["pair_bounds_hits"]
        misses = after["pair_bounds_misses"] - before["pair_bounds_misses"]
        entries, trees = after["pair_bounds"], after["trees"]
    else:
        hits, misses = counters["chunk.pair_bounds_hits"], counters["chunk.pair_bounds_misses"]
        entries, trees = 0, counters["chunk.trees"]
    out["context.memo_hit_ratio"] = _ratio(hits, hits + misses)
    out["context.memo_ms"] = per_op(memo_seconds)
    out["context.memo_entries"] = entries
    out["context.trees"] = trees
    # candidates
    out["candidates.filter_ms"] = per_op(layer_self["candidates"])
    out["candidates.refined_per_query"] = _ratio(counts["evaluated"], counts["threshold_queries"])
    out["candidates.pruned_share"] = _ratio(counts["pruned"], counts["eligible"])
    out["candidates.refined_per_match"] = _ratio(counts["evaluated"], counts["matches"])
    # idca
    runs = calls("idca.start_run")
    out["idca.runs"] = runs
    out["idca.domfilter_ms"] = per_op(seconds("idca.domfilter"))
    out["idca.influence_per_run"] = _ratio(counters["idca.influence"], runs)
    out["idca.steps"] = calls("idca.step")
    out["idca.step_self_ms"] = per_op(
        names.get("idca.step", {}).get("self", 0.0) - memo_seconds
    )
    # scheduler
    out["scheduler.steps_per_query"] = _ratio(
        counters["scheduler.steps"], counters["scheduler.refines"]
    )
    out["scheduler.undecided_step_share"] = _ratio(
        counters["scheduler.undecided_steps"], counters["scheduler.steps"]
    )
    out["scheduler.self_ms"] = per_op(layer_self["scheduler"])
    # decomposition
    out["decomposition.ms"] = per_op(layer_self["decomposition"])
    out["decomposition.calls"] = calls("decomposition.partitions", "decomposition.csr_batch")
    out["decomposition.trees_built"] = calls("decomposition.tree_init")
    # kernels (spans on the serial paths, the lanes' own clock on service paths)
    out["kernels.ms"] = per_op(layer_self["kernels"])
    out["kernels.calls"] = calls("kernels.pdom_bounds_csr")
    out["kernels.cells"] = counters["kernels.cells"]
    # aggregate
    out["aggregate.ms"] = per_op(layer_self["aggregate"])
    out["aggregate.calls"] = calls("aggregate.count_bounds")
    out["aggregate.cells"] = counters["aggregate.cells"]
    # engine
    out["engine.assemble_ms"] = per_op(layer_self["engine"])
    # mutation
    out["mutation.apply_ms"] = per_op(seconds("mutation.apply"))
    out["mutation.context_advance_ms"] = per_op(seconds("mutation.context_advance"))
    out["mutation.index_advance_ms"] = per_op(seconds("mutation.index_advance"))
    out["mutation.delta_ship_ms"] = per_op(
        max(0.0, seconds("mutation.service_apply") - seconds("mutation.engine_apply"))
    )
    out["mutation.memo_survival_ratio"] = _ratio(
        counters["mutation.memo_after"], counters["mutation.memo_before"]
    )
    out["mutation.post_hit_ratio"] = _ratio(counts["post_hits"], counts["post_lookups"])
    # sharedmem
    out["sharedmem.export_s"] = setup.get("sharedmem.export", {}).get("seconds", 0.0)
    out["sharedmem.payload_bytes"] = workload.payload_nbytes()
    # shares and the harness's own numbers
    for layer in TIMED_LAYERS:
        out[f"{layer}.share"] = _ratio(layer_self[layer], op_wall)
    out["trace.uncovered_share"] = max(0.0, 1.0 - _ratio(sum(layer_self.values()), op_wall))
    return out

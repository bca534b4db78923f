"""Runs one workload in this process and reports its metrics.

Phases of a run: the soundness self-test; three to nine timed set-ups
(database build + index + engine / service / gateway start + ``warm()``;
``setup_s`` is their median); untimed warm-up operations; the timed phase
with tracing **off** (end-to-end metrics); and, with ``trace``, a second
pass over a fresh system with the span recorder installed that replays a
fixed number of the same operations (per-layer metrics and the tracing
overhead).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from . import OUT_DIR, ROOT, checks, layers
from .tracing import Recorder
from .workloads import WORKLOADS

SETUP_REPEATS = 3  # at least; a set-up that takes milliseconds is repeated
SETUP_REPEATS_MAX = 9  # more often, until a second has been spent on it
SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def environment(seed: int, workload) -> dict:
    """What a number was measured with; printed with every result."""
    from repro.core.kernels import kernel_environment

    kernel = kernel_environment()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            # this checkout's commit or none: never a repository further up
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": kernel["numpy_version"],
        "numba": kernel["numba_version"],
        "kernel_backend": kernel["default_backend"],
        "start_method": multiprocessing.get_start_method(allow_none=True) or "default",
        "git_commit": commit or "unknown",
        "seed": seed,
        "sizes": workload.size,
    }


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    toy: bool = False,
    out_dir=OUT_DIR,
) -> dict:
    """Run workload ``name``; returns metrics, counts and provenance."""
    workload = WORKLOADS[name](seed, toy)
    errors = checks.selftest()

    setup_seconds = []
    while True:
        started = perf_counter()
        workload.setup()
        setup_seconds.append(perf_counter() - started)
        enough = len(setup_seconds) >= SETUP_REPEATS and (
            sum(setup_seconds) >= 1.0 or len(setup_seconds) >= SETUP_REPEATS_MAX
        )
        if trace or enough:  # a traced run reports no setup_s
            break
        workload.close()
    try:
        workload.prepare()
        warmup, fixed = workload.size["warmup"], workload.size["traced"]
        inputs = workload.input_digest()
        workload.run(0, warmup, None)
        timed = workload.run(warmup, None, seconds)
        rss_self = _peak_rss_mb(resource.RUSAGE_SELF)  # before the reference engine's
        workload.verify(timed)
    finally:
        workload.close()
    # worker lanes count once they are reaped, i.e. after close()
    rss = rss_self + (_peak_rss_mb(resource.RUSAGE_CHILDREN) if workload.workers else 0.0)

    queries = timed.seconds()
    report = {
        "workload": name,
        "environment": environment(seed, workload),
        "operations": {
            "setups": len(setup_seconds),
            "warmup": warmup,
            "timed_calls": timed.attempted,
            "query_samples": len(queries),
            "requests": timed.requests,
            "traced": fixed if trace else 0,
        },
        "input_digest": inputs,
        "result_digest": timed.result_digest(warmup, fixed),
        "attempted": timed.attempted,
        "failed": timed.failed + len(errors),
        "errors": errors + timed.errors,
        "end_to_end": {
            "setup_s": statistics.median(setup_seconds),
            "query_p50_ms": layers.ms(timed.typical_seconds()) if queries else 0.0,
            "throughput_qps": timed.requests / timed.wall if timed.wall else 0.0,
            "peak_rss_mb": rss,
        },
    }
    if trace:
        report["per_layer"] = layers.workload_specific(timed)
        traced, recorder, stats = _traced_pass(workload, warmup, fixed)
        report["failed"] += traced.failed
        report["errors"] += traced.errors
        report["per_layer"].update(layers.per_layer(recorder, traced, workload, stats))
        report["per_layer"]["trace.overhead_share"] = layers.overhead_share(
            traced.op_seconds(warmup, fixed), timed.op_seconds(warmup, fixed)
        )
        report["traced_result_digest"] = traced.result_digest(warmup, fixed)
        if report["traced_result_digest"] != report["result_digest"]:
            report["failed"] += 1
            report["errors"].append("traced pass produced different results")
        report["missing_trace_targets"] = recorder.missing
        os.makedirs(out_dir, exist_ok=True)
        recorder.write_jsonl(os.path.join(out_dir, f"trace-{name}.jsonl"))
    report["correct"] = report["failed"] == 0
    return report


def _traced_pass(workload, warmup: int, fixed: int):
    """Replay ``fixed`` operations on a fresh system under the recorder."""
    from repro.uncertain.decomposition import clear_csr_cache

    clear_csr_cache()  # module-global; the untraced pass must not pre-warm it
    recorder = Recorder()
    with recorder:
        workload.setup()  # traced: share_memory() and the lane spawn are spans
        try:
            workload.prepare()
            recorder.enabled = False
            workload.run(0, warmup, None)
            before = workload.context_stats()
            recorder.enabled = True
            recorder.ops_started = perf_counter()
            traced = workload.run(warmup, fixed, None, recorder)
            recorder.enabled = False
            after = workload.context_stats()
            workload.verify(traced)
        finally:
            recorder.enabled = False
            workload.close()
    return traced, recorder, None if before is None else (before, after)


def result_line(report: dict, spec: dict, trace: bool) -> str:
    """The contract's last line: correct, attempted, failed, metrics."""
    section = "per_layer" if trace else "end_to_end"
    metrics = {
        entry["name"]: {"value": report[section][entry["name"]], "unit": entry["unit"]}
        for entry in spec[section]
    }
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


def print_report(report: dict, spec: dict, stream=sys.stdout) -> None:
    """Every metric by name with its unit, plus provenance."""
    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {report['workload']} ==", file=stream)
    print("environment:", json.dumps(report["environment"], sort_keys=True), file=stream)
    print("operations:", json.dumps(report["operations"], sort_keys=True), file=stream)
    print(
        f"inputs {report['input_digest'][:16]} results {report['result_digest'][:16]}",
        file=stream,
    )
    for section in ("end_to_end", "per_layer"):
        for name, value in report.get(section, {}).items():
            print(f"  {name:36s} {value:16.6f} {units[name]}", file=stream)
    if report.get("missing_trace_targets"):
        print("  missing trace targets:", report["missing_trace_targets"], file=stream)
    for error in report["errors"]:
        print("  FAILED:", error, file=stream)
    print(
        f"  correct={report['correct']} attempted={report['attempted']} failed={report['failed']}",
        file=stream,
    )

"""Smoke test of the benchmark itself, at toy size (N <= 200, a few operations).

Collected by the tier-1 command.  It checks the harness, not the program's
speed: every metric named in ``BENCHMARK.json`` is emitted with a finite
value, the spans of a traced pass are well-formed, and a seed determines the
inputs and the results.
"""

import json
import math

import pytest

from bench import harness, tracing
from bench.workloads import WORKLOADS

SPEC = harness.load_spec()


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["bench"]
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in SPEC["end_to_end"]
    )


@pytest.fixture(scope="module", params=list(WORKLOADS))
def report(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    result = harness.run_workload(request.param, 7, 0.2, True, toy=True, out_dir=out)
    result["trace_path"] = out / f"trace-{request.param}.jsonl"
    return result


def test_every_metric_is_emitted_and_finite(report):
    assert report["errors"] == []
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
    for section in ("end_to_end", "per_layer"):
        for entry in SPEC[section]:
            value = report[section][entry["name"]]
            assert math.isfinite(value), entry["name"]
    for entry in SPEC["end_to_end"]:  # the contract: never 0
        assert report["end_to_end"][entry["name"]] > 0, entry["name"]
    assert report["missing_trace_targets"] == []
    for trace in (False, True):  # the contract's last line parses back
        line = json.loads(harness.result_line(report, SPEC, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        expected = SPEC["per_layer" if trace else "end_to_end"]
        assert list(line["metrics"]) == [entry["name"] for entry in expected]


def test_same_operations_give_the_same_results_traced_or_not(report):
    # the traced pass replays the operations on a fresh system
    assert report["traced_result_digest"] == report["result_digest"]


def test_spans_are_well_formed(report):
    with open(report["trace_path"], encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    by_id = {span["id"]: span for span in spans}
    assert len(by_id) == len(spans) > 0
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]  # the parent exists ...
            assert parent["thread"] == span["thread"]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
    own = tracing.self_seconds(spans)
    assert all(seconds >= -1e-9 for seconds in own.values())
    # self times partition each thread's traced time, so per thread they
    # cannot add up to more than the span of time the thread was observed
    for thread in {span["thread"] for span in spans}:
        mine = [s for s in spans if s["thread"] == thread and not s["detached"]]
        if mine:
            observed = max(s["end"] for s in mine) - min(s["start"] for s in mine)
            assert sum(own[s["id"]] for s in mine) <= observed + 1e-9
    operations = [span for span in spans if span["name"] == tracing.OP]
    assert len(operations) == report["operations"]["traced"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_seed_determines_the_inputs(name):
    def digest(seed):
        workload = WORKLOADS[name](seed, toy=True)
        workload.setup()
        try:
            workload.prepare()
            return workload.input_digest()
        finally:
            workload.close()

    assert digest(7) == digest(7)
    assert digest(7) != digest(8)

"""Integration tests of the HTTP gateway over a real socket.

Every test talks to a live ``GatewayServer`` through ``http.client``
connections — real TCP, real framing — and asserts the contracts of the
network tier: byte-identical payloads vs serial evaluation at every
worker count, the typed-error → status-code mapping (429/503/504/400),
in-flight coalescing, graceful drain and crash recovery behind the
gateway.  The coalescing key (``codec.request_key``) and the validation of
``GatewayConfig`` are unit-tested without a socket.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import threading
import time

import pytest

from repro.datasets import uniform_rectangle_database
from repro.engine import ExecutorConfig, QueryEngine, QueryService
from repro.gateway import (
    AsyncGateway,
    GatewayConfig,
    GatewayServer,
    canonical_json,
    decode_mutations,
    decode_query,
    encode_result,
    request_key,
)
from repro.gateway.server import MAX_BATCH_QUERIES, MAX_MUTATION_OPS
from repro.uncertain import Update
from repro.testing.faults import ANY_LANE, FaultPlan, inject_faults
from repro.testing.load import run_ramp

#: One document per query kind, all over database positions (so the serial
#: expectation can be computed with ``decode_query`` + ``QueryEngine``).
QUERY_DOCS = [
    {"type": "knn", "query": 0, "k": 3, "tau": 0.5, "max_iterations": 3},
    {"type": "rknn", "query": 1, "k": 2, "tau": 0.5, "max_iterations": 3},
    {"type": "range", "query": 2, "epsilon": 0.3, "tau": 0.5, "max_depth": 4},
    {"type": "ranking", "query": 3, "max_iterations": 2},
    {
        "type": "inverse_ranking",
        "target": 4,
        "reference": 5,
        "max_iterations": 3,
    },
]


@pytest.fixture(scope="module")
def gateway_database():
    return uniform_rectangle_database(num_objects=30, max_extent=0.05, seed=3)


@pytest.fixture(scope="module")
def shared_server(gateway_database):
    """One service+gateway shared by the read-mostly tests of this module."""
    with QueryService(gateway_database, ExecutorConfig(workers=2)) as service:
        with GatewayServer(service) as server:
            yield server


def _request(server, method, path, document=None, headers=None):
    """One HTTP exchange on a fresh connection; returns (status, headers, body)."""
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        body = None if document is None else json.dumps(document).encode()
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def _post(server, path, document):
    return _request(server, "POST", path, document)


def _serial_payload(database, document):
    """The canonical payload bytes of ``document`` evaluated serially."""
    request = decode_query(
        {k: v for k, v in document.items() if k != "timeout_ms"},
        database,
    )
    (result,) = QueryEngine(database).evaluate_many([request])
    return canonical_json(encode_result(result))


# --------------------------------------------------------------------- #
# correctness: every kind, every worker count, byte-identical to serial
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_all_kinds_bit_identical_to_serial(gateway_database, workers):
    with QueryService(gateway_database, ExecutorConfig(workers=workers)) as service:
        with GatewayServer(service) as server:
            # the second round is served from warm caches: same bytes
            for document in QUERY_DOCS + QUERY_DOCS:
                status, _headers, body = _post(server, "/v1/query", document)
                assert status == 200, body
                expected = b'{"result":' + _serial_payload(
                    gateway_database, document
                ) + b"}"
                assert body == expected


def test_batch_endpoint_matches_individual_queries(shared_server, gateway_database):
    status, _headers, body = _post(
        shared_server, "/v1/batch", {"queries": QUERY_DOCS}
    )
    assert status == 200
    parts = [_serial_payload(gateway_database, doc) for doc in QUERY_DOCS]
    assert body == b'{"results":[' + b",".join(parts) + b"]}"


def test_concurrent_clients_all_served(shared_server, gateway_database):
    expected = {
        i: b'{"result":' + _serial_payload(gateway_database, doc) + b"}"
        for i, doc in enumerate(QUERY_DOCS)
    }
    outcomes = {}

    def client(i):
        document = QUERY_DOCS[i % len(QUERY_DOCS)]
        outcomes[i] = (_post(shared_server, "/v1/query", document), i % len(QUERY_DOCS))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(outcomes) == 8
    for (status, _headers, body), doc_index in outcomes.values():
        assert status == 200
        assert body == expected[doc_index]


def test_load_ramp_is_clean(shared_server):
    host, port = shared_server.address

    def factory(index):
        return "/v1/query", {
            "type": "knn", "query": index % 16, "k": 3, "tau": 0.5,
            "max_iterations": 3,
        }

    reports = run_ramp(
        host, port, factory, concurrencies=(1, 2, 4), requests_per_step=8,
        timeout=60.0,
    )
    assert [report.concurrency for report in reports] == [1, 2, 4]
    for report in reports:
        assert report.transport_errors == 0
        assert report.completed == report.offered == 8
        assert report.status_counts.get(200, 0) == report.completed


def test_keep_alive_connection_reuse(shared_server):
    host, port = shared_server.address
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        for _ in range(3):
            connection.request(
                "POST", "/v1/query", body=json.dumps(QUERY_DOCS[0]).encode()
            )
            response = connection.getresponse()
            assert response.status == 200
            response.read()
    finally:
        connection.close()


# --------------------------------------------------------------------- #
# error mapping
# --------------------------------------------------------------------- #
def test_malformed_requests_map_to_400(shared_server):
    cases = [
        {"type": "knn", "query": 0, "k": 3},  # missing tau
        {"type": "knn", "query": 0, "k": 3, "tau": 0.5, "bogus": 1},  # unknown field
        {"type": "knn", "query": 99, "k": 3, "tau": 0.5},  # index out of range
        {"type": "teleport", "query": 0},  # unknown kind
        {"type": "knn", "query": 0, "k": "three", "tau": 0.5},  # wrong type
        {"type": "knn", "query": 0, "k": 3, "tau": 0.5, "timeout_ms": -5},
        [1, 2, 3],  # not an object
    ]
    for document in cases:
        status, _headers, body = _post(shared_server, "/v1/query", document)
        assert status == 400, (document, body)
        assert "error" in json.loads(body)


_BOX = {"lower": [0.1, 0.1], "upper": [0.2, 0.2]}
_GAUSSIAN = {"mean": [0.5, 0.5], "std": [0.01, 0.01]}
_POINTS = [[0.3, 0.3], [0.4, 0.35]]


@pytest.mark.parametrize(
    "literal",
    [
        {"box": _BOX, "colour": "red"},  # unknown literal field
        {"box": dict(_BOX, extra=1)},  # unknown field inside box
        {"gaussian": dict(_GAUSSIAN, skew=0.1)},  # unknown field inside gaussian
        {"box": _BOX, "weights": [1.0]},  # weights without points
        {"gaussian": _GAUSSIAN, "weights": [1.0]},
        {"points": _POINTS, "label": 7},  # a label must be a string
    ],
)
def test_malformed_literals_map_to_400(shared_server, literal):
    for path, document in (
        ("/v1/query", {"type": "knn", "query": literal, "k": 3, "tau": 0.5}),
        ("/v1/mutate", {"mutations": [{"op": "insert", "object": literal}]}),
    ):
        status, _headers, body = _post(shared_server, path, document)
        assert status == 400, (path, document, body)
        assert "error" in json.loads(body)


@pytest.mark.parametrize(
    "literal",
    [
        {"box": _BOX},
        {"points": _POINTS, "weights": [0.25, 0.75]},
        {"gaussian": _GAUSSIAN},
    ],
    ids=["box", "points", "gaussian"],
)
def test_literal_label_is_carried_into_the_object(gateway_database, literal):
    labelled = dict(literal, label="iceberg-7")
    request = decode_query(
        {"type": "knn", "query": labelled, "k": 3, "tau": 0.5}, gateway_database
    )
    assert request.query.label == "iceberg-7"
    (update,) = decode_mutations(
        [{"op": "update", "position": 7, "object": labelled}], gateway_database
    )
    assert update.obj.label == "iceberg-7"
    # the label is optional
    assert decode_query(
        {"type": "knn", "query": literal, "k": 3, "tau": 0.5}, gateway_database
    ).query.label is None


def test_invalid_json_body_maps_to_400(shared_server):
    host, port = shared_server.address
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        connection.request("POST", "/v1/query", body=b"{nope")
        response = connection.getresponse()
        assert response.status == 400
        assert "error" in json.loads(response.read())
    finally:
        connection.close()


def test_unknown_route_and_method(shared_server):
    assert _request(shared_server, "GET", "/v1/query")[0] == 405
    assert _request(shared_server, "POST", "/healthz", {})[0] == 405
    assert _request(shared_server, "GET", "/nope")[0] == 404


def test_empty_batch_maps_to_400(shared_server):
    assert _post(shared_server, "/v1/batch", {"queries": []})[0] == 400
    assert _post(shared_server, "/v1/batch", {})[0] == 400


def test_removed_standing_routes_answer_404(shared_server):
    for method, path in [
        ("POST", "/v1/standing"),
        ("GET", "/v1/standing"),
        ("GET", "/v1/standing/sq-1"),
        ("DELETE", "/v1/standing/sq-1"),
    ]:
        document = {"query": QUERY_DOCS[0]} if method == "POST" else None
        status, _headers, body = _request(shared_server, method, path, document)
        assert status == 404, (method, path, body)


def test_tenant_field_is_an_unknown_query_field(shared_server):
    status, _headers, body = _post(
        shared_server, "/v1/query", dict(QUERY_DOCS[0], tenant="acme")
    )
    assert status == 400, body
    message = json.loads(body)["error"]
    assert "unknown field" in message and "tenant" in message


def test_input_limits_map_to_413(shared_server):
    queries = [QUERY_DOCS[0]] * (MAX_BATCH_QUERIES + 1)
    status, _headers, body = _post(shared_server, "/v1/batch", {"queries": queries})
    assert status == 413, body
    literal = {"box": {"lower": [0.1, 0.1], "upper": [0.2, 0.2]}}
    mutations = [{"op": "insert", "object": literal}] * (MAX_MUTATION_OPS + 1)
    status, _headers, body = _post(shared_server, "/v1/mutate", {"mutations": mutations})
    assert status == 413, body
    assert shared_server.gateway.service.epoch == 0


def test_overload_maps_to_429_with_retry_after(gateway_database):
    plan = FaultPlan(delay_lane=ANY_LANE, delay_seconds=1.0, delay_once=False)
    with inject_faults(plan):
        with QueryService(
            gateway_database,
            ExecutorConfig(workers=1),
            max_pending_batches=1,
        ) as service:
            with GatewayServer(service) as server:
                first = {}

                def leader():
                    first["outcome"] = _post(server, "/v1/query", QUERY_DOCS[0])

                thread = threading.Thread(target=leader)
                thread.start()
                # wait until the leader is admitted, so the probe below is
                # guaranteed to find the (single-batch) queue full
                deadline = time.monotonic() + 10.0
                while (
                    server.metrics()["queue_depth"] == 0
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                time.sleep(0.1)
                # distinct document: must not coalesce with the leader
                status = None
                while time.monotonic() < deadline:
                    status, headers, body = _post(server, "/v1/query", QUERY_DOCS[1])
                    if status == 429:
                        break
                    time.sleep(0.02)
                thread.join()
                assert status == 429, body
                assert "Retry-After" in headers
                assert first["outcome"][0] == 200


def test_expired_deadline_maps_to_504(gateway_database):
    plan = FaultPlan(delay_lane=ANY_LANE, delay_seconds=1.5, delay_once=False)
    with inject_faults(plan):
        with QueryService(gateway_database, ExecutorConfig(workers=1)) as service:
            with GatewayServer(service) as server:
                document = dict(QUERY_DOCS[0], timeout_ms=100)
                status, _headers, body = _post(server, "/v1/query", document)
                assert status == 504, body
                assert "error" in json.loads(body)


def test_closed_service_maps_to_503(gateway_database):
    service = QueryService(gateway_database, ExecutorConfig(workers=1))
    with GatewayServer(service) as server:
        assert _post(server, "/v1/query", QUERY_DOCS[0])[0] == 200
        service.close()
        status, _headers, body = _post(server, "/v1/query", QUERY_DOCS[0])
        assert status == 503, body
        health_status, _h, health_body = _request(server, "GET", "/healthz")
        assert health_status == 503
        assert json.loads(health_body)["status"] == "closed"


# --------------------------------------------------------------------- #
# coalescing
# --------------------------------------------------------------------- #
def test_coalesced_duplicates_byte_identical(gateway_database):
    plan = FaultPlan(delay_lane=ANY_LANE, delay_seconds=0.8, delay_once=False)
    with inject_faults(plan):
        with QueryService(gateway_database, ExecutorConfig(workers=1)) as service:
            with GatewayServer(service) as server:
                document = QUERY_DOCS[0]
                outcomes = {}

                def client(i, delay):
                    time.sleep(delay)
                    outcomes[i] = _post(server, "/v1/query", document)

                # the leader arrives first; followers arrive while its
                # (delayed) evaluation is in flight and must coalesce
                threads = [
                    threading.Thread(target=client, args=(i, 0.0 if i == 0 else 0.25))
                    for i in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                bodies = {i: outcome[2] for i, outcome in outcomes.items()}
                statuses = {outcome[0] for outcome in outcomes.values()}
                assert statuses == {200}
                # byte-identical to each other and to serial evaluation
                assert len(set(bodies.values())) == 1
                expected = b'{"result":' + _serial_payload(
                    gateway_database, document
                ) + b"}"
                assert bodies[0] == expected
                metrics = server.metrics()
                assert metrics["coalesce_hits"] >= 1
                assert metrics["engine"]["batches_total"] < 4


def test_coalescing_window_is_in_flight_only(shared_server):
    before = shared_server.metrics()["coalesce_hits"]
    document = QUERY_DOCS[2]
    first = _post(shared_server, "/v1/query", document)
    second = _post(shared_server, "/v1/query", document)
    assert first[0] == second[0] == 200
    assert first[2] == second[2]
    # sequential duplicates never overlap, so no coalesce hit is recorded
    assert shared_server.metrics()["coalesce_hits"] == before


# --------------------------------------------------------------------- #
# the coalescing key: equal keys must mean bit-identical results
# --------------------------------------------------------------------- #
def _key(database, document) -> bytes:
    return request_key(database, decode_query(document, database))


#: Per kind, one changed value for every field of the request dataclass the
#: codec decodes (``InverseRankingQuery.stop`` has no document field).
FIELD_CHANGES = {
    "knn": {"query": 7, "k": 4, "tau": 0.6, "max_iterations": 4, "strict": True},
    "rknn": {
        "query": 7, "k": 3, "tau": 0.6, "max_iterations": 4,
        "candidate_indices": [0, 1, 2], "strict": True,
    },
    "range": {
        "query": 7, "epsilon": 0.25, "tau": 0.6, "max_depth": 5, "strict": True,
    },
    "ranking": {
        "query": 7, "max_iterations": 3, "uncertainty_budget": 0.5,
        "candidate_indices": [0, 1, 2],
    },
    "inverse_ranking": {
        "target": 7, "reference": 8, "max_iterations": 4,
        "uncertainty_budget": 0.5, "exclude_indices": [9],
    },
}


def test_request_key_equal_documents_equal_keys(gateway_database):
    literal = {"box": {"lower": [0.4, 0.4], "upper": [0.45, 0.45]}}
    documents = QUERY_DOCS + [dict(QUERY_DOCS[0], query=literal)]
    for document in documents:
        # decoded twice: distinct request objects (and literal objects)
        assert _key(gateway_database, document) == _key(
            gateway_database, json.loads(json.dumps(document))
        )
    keys = {_key(gateway_database, document) for document in documents}
    assert len(keys) == len(documents)


def test_request_key_differs_across_epochs(gateway_database):
    mutated = gateway_database.apply([Update(20, gateway_database[21])])
    assert mutated.epoch == gateway_database.epoch + 1
    for document in QUERY_DOCS:  # none of them names position 20
        assert _key(gateway_database, document) != _key(mutated, document)


@pytest.mark.parametrize(
    "document", QUERY_DOCS, ids=[document["type"] for document in QUERY_DOCS]
)
def test_request_key_changes_with_every_result_field(gateway_database, document):
    changes = FIELD_CHANGES[document["type"]]
    request = decode_query(document, gateway_database)
    decoded_fields = {field.name for field in dataclasses.fields(request)} - {"stop"}
    assert set(changes) == decoded_fields
    base = _key(gateway_database, document)
    for field_name, value in changes.items():
        assert document.get(field_name) != value
        changed = dict(document, **{field_name: value})
        assert _key(gateway_database, changed) != base, field_name


def test_request_key_ignores_timeout_ms(gateway_database):
    for document in QUERY_DOCS:
        stripped = AsyncGateway._strip_transport(dict(document, timeout_ms=50))
        assert stripped == document
        assert _key(gateway_database, stripped) == _key(gateway_database, document)


def test_request_key_separates_position_from_equal_literal(gateway_database):
    mbr = gateway_database[0].mbr
    literal = {"box": {"lower": list(mbr.lows), "upper": list(mbr.highs)}}
    by_position = dict(QUERY_DOCS[0], query=0)
    by_literal = dict(QUERY_DOCS[0], query=literal)
    assert _key(gateway_database, by_position) != _key(gateway_database, by_literal)


# --------------------------------------------------------------------- #
# configuration: three fields, validated at construction
# --------------------------------------------------------------------- #
REMOVED_CONFIG_FIELDS = [
    "coalesce", "coalesce_grace_seconds", "tenant_budget",
    "tenant_refill_seconds", "max_batch_queries", "max_mutation_ops",
    "max_standing_queries", "drain_grace_seconds", "max_header_bytes",
    "max_body_bytes",
]


def test_gateway_config_has_three_fields():
    names = [field.name for field in dataclasses.fields(GatewayConfig)]
    assert names == ["host", "port", "default_timeout_ms"]
    # the boundary values are valid
    GatewayConfig(port=65535, default_timeout_ms=1)
    GatewayConfig(port=0, default_timeout_ms=None)
    with pytest.raises(TypeError):
        AsyncGateway(None, metrics=None)


@pytest.mark.parametrize("field_name", REMOVED_CONFIG_FIELDS)
def test_removed_config_fields_raise_type_error(field_name):
    with pytest.raises(TypeError, match=field_name):
        GatewayConfig(**{field_name: 1})


@pytest.mark.parametrize(
    "field_name, value",
    [
        ("default_timeout_ms", 0),
        ("default_timeout_ms", -5),
        ("default_timeout_ms", True),
        ("default_timeout_ms", 1.5),
        ("default_timeout_ms", "100"),
        ("port", -1),
        ("port", 65536),
        ("port", True),
        ("port", "8080"),
    ],
)
def test_gateway_config_rejects_invalid_values(field_name, value):
    with pytest.raises(ValueError, match=field_name):
        GatewayConfig(**{field_name: value})


# --------------------------------------------------------------------- #
# lifecycle: drain, crash recovery, observability
# --------------------------------------------------------------------- #
def test_graceful_shutdown_drains_in_flight(gateway_database):
    plan = FaultPlan(delay_lane=ANY_LANE, delay_seconds=1.0, delay_once=False)
    with inject_faults(plan):
        with QueryService(gateway_database, ExecutorConfig(workers=1)) as service:
            server = GatewayServer(service)
            outcome = {}

            def client():
                outcome["result"] = _post(server, "/v1/query", QUERY_DOCS[0])

            thread = threading.Thread(target=client)
            thread.start()
            time.sleep(0.3)  # let the request reach the worker
            server.close(drain=True)
            thread.join(timeout=30)
            assert not thread.is_alive()
            status, _headers, body = outcome["result"]
            assert status == 200, body
            expected = b'{"result":' + _serial_payload(
                gateway_database, QUERY_DOCS[0]
            ) + b"}"
            assert body == expected


def test_worker_kill_mid_request_still_well_formed(gateway_database):
    plan = FaultPlan(kill_lane=ANY_LANE, kill_after_chunks=0, kill_once=True)
    with inject_faults(plan):
        with QueryService(gateway_database, ExecutorConfig(workers=1)) as service:
            with GatewayServer(service) as server:
                status, _headers, body = _post(server, "/v1/query", QUERY_DOCS[0])
                # supervision respawns the worker and re-drives the chunk:
                # the response is a *correct result*, not just well-formed
                assert status == 200, body
                expected = b'{"result":' + _serial_payload(
                    gateway_database, QUERY_DOCS[0]
                ) + b"}"
                assert body == expected
                assert server.metrics()["engine"]["worker_respawns"] >= 1


def test_healthz_and_metrics_surface(shared_server):
    status, _headers, body = _request(shared_server, "GET", "/healthz")
    assert status == 200
    health = json.loads(body)
    assert health["status"] == "ok"
    assert health["workers"] == 2

    before = json.loads(_request(shared_server, "GET", "/metrics")[2])
    assert _post(shared_server, "/v1/query", QUERY_DOCS[0])[0] == 200
    after = json.loads(_request(shared_server, "GET", "/metrics")[2])
    for section, counter in [
        ("gateway", "requests_total"),
        ("gateway", "connections_total"),
    ]:
        assert after[section][counter] > before[section][counter]
    gateway = after["gateway"]
    assert gateway["responses_by_status"]["200"] >= 1
    latency = gateway["latency"]
    assert latency["count"] >= 1
    assert 0 < latency["p50_seconds"] <= latency["p95_seconds"] <= latency["p99_seconds"]
    assert gateway["engine"]["scheduler_steps"] > 0
    assert after["service"]["workers"] == 2


def test_health_and_metrics_show_no_store_state(shared_server):
    """Lanes keep their memos in memory, so there is no store to report.

    ``/metrics`` has no ``store`` section and its engine counters no
    ``shared_*`` entry; ``/healthz`` has no store flags.
    """
    status, _headers, body = _request(shared_server, "GET", "/healthz")
    assert status == 200
    health = json.loads(body)
    assert health["status"] == "ok"
    assert "degraded_store" not in health and "degraded_workers" not in health

    assert _post(shared_server, "/v1/query", QUERY_DOCS[1])[0] == 200
    metrics = json.loads(_request(shared_server, "GET", "/metrics")[2])
    assert set(metrics) == {"gateway", "service"}
    engine = metrics["gateway"]["engine"]
    assert not [counter for counter in engine if counter.startswith(("shared", "claim"))]

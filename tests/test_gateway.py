"""Integration tests of the HTTP gateway over a real socket.

Every test talks to a live ``GatewayServer`` through ``http.client``
connections — real TCP, real framing — and asserts the contracts of the
network tier: byte-identical payloads vs serial evaluation at every
worker count, the typed-error → status-code mapping (429/503/504/400),
in-flight coalescing, per-tenant budgets, graceful drain and crash
recovery behind the gateway.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.datasets import uniform_rectangle_database
from repro.engine import ExecutorConfig, QueryEngine, QueryService
from repro.gateway import (
    GatewayConfig,
    GatewayServer,
    canonical_json,
    decode_query,
    encode_result,
)
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
        {k: v for k, v in document.items() if k not in ("timeout_ms", "tenant")},
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
# tenant budgets
# --------------------------------------------------------------------- #
def test_tenant_budget_maps_to_429(gateway_database):
    config = GatewayConfig(tenant_budget=1, tenant_refill_seconds=120.0)
    with QueryService(gateway_database, ExecutorConfig(workers=1)) as service:
        with GatewayServer(service, config) as server:
            document = dict(QUERY_DOCS[0], tenant="acme")
            status, _headers, _body = _post(server, "/v1/query", document)
            assert status == 200
            # the first batch charged its actual iterations (> 1 token):
            # the tenant is now overdrawn and must wait out the debt
            status, headers, body = _post(server, "/v1/query", document)
            assert status == 429, body
            assert int(headers["Retry-After"]) >= 1
            assert server.metrics()["tenant_rejections"] == 1
            # other tenants (and untenanted requests) are unaffected
            other = dict(QUERY_DOCS[0], tenant="zen")
            assert _post(server, "/v1/query", other)[0] == 200
            assert _post(server, "/v1/query", QUERY_DOCS[0])[0] == 200


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


def test_health_and_metrics_surface_warm_start_state(shared_server, tmp_path):
    """The warm-start directory is the only store state ``/metrics`` shows.

    Without a ``bounds_store_path`` the ``store`` section is ``None`` and
    the engine counters carry only the warm-start hits; with one it reports
    the directory's handshake outcome.  ``/healthz`` has no store flags.
    """
    status, _headers, body = _request(shared_server, "GET", "/healthz")
    assert status == 200
    health = json.loads(body)
    assert health["status"] == "ok"
    assert "degraded_store" not in health and "degraded_workers" not in health

    assert _post(shared_server, "/v1/query", QUERY_DOCS[1])[0] == 200
    metrics = json.loads(_request(shared_server, "GET", "/metrics")[2])
    engine = metrics["gateway"]["engine"]
    assert engine["shared_hits"] == 0
    for counter in ("shared_rejected", "shared_duplicates", "claim_steals", "claim_waits"):
        assert counter not in engine
    assert metrics["store"] is None

    database = shared_server.gateway.service.engine.database
    with QueryService(
        database, ExecutorConfig(workers=1), bounds_store_path=str(tmp_path)
    ) as service:
        with GatewayServer(service) as server:
            store = json.loads(_request(server, "GET", "/metrics")[2])["store"]
    assert store == {
        "path": str(tmp_path),
        "warm_started": False,
        "rejected_store": None,
        "records": 0,
    }

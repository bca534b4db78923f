"""The asyncio HTTP gateway in front of :class:`~repro.engine.QueryService`.

Request lifecycle (see ``docs/architecture.md`` · *Network tier*):

1. **Parse** — ``http.read_request`` frames one request; malformed bytes
   answer 400/413/431 and close the connection.
2. **Decode** — ``codec.decode_query`` turns the JSON document into one of
   the five typed query requests; transport fields (``timeout_ms``,
   ``tenant``) are stripped first.  Decode failures answer 400 before
   anything touches the service queue.
3. **Admit** — per-tenant token buckets (refinement-iteration budgets
   layered on the scheduler's global ``max_iterations`` budgets) answer
   429 + ``Retry-After`` when a tenant is out of budget; the service's own
   admission bounds surface as 429 too.
4. **Coalesce** — in-flight requests with equal ``codec.request_key``
   share one evaluation: followers await the leader's future and receive
   byte-identical payloads.  The coalescing window is strictly *in
   flight*: the map entry is dropped the moment the future resolves, so
   no stale result is ever served.
5. **Submit** — fresh requests go to ``QueryService.submit`` with the
   client deadline fixed at *arrival* time (``deadline_epoch``), so queue
   wait counts against the budget.  The batch future re-enters the event
   loop via ``ServiceBatch.add_done_callback`` +
   ``loop.call_soon_threadsafe`` — no loop thread ever blocks on a batch.
6. **Respond** — results serialise through ``codec.encode_result`` /
   ``codec.canonical_json``; typed service errors map onto status codes
   (429/503/504, anything else 500) with JSON error bodies.

The gateway also fronts the **mutation path** (PR 9): ``POST /v1/mutate``
decodes a sequential operation list (``codec.decode_mutations``), applies
it through the :meth:`QueryService.submit_mutations` snapshot barrier, and
then refreshes the **standing-query registry** — kNN / range / ranking
documents registered via ``POST /v1/standing`` whose latest results the
gateway keeps current across epochs.  The refresh is incremental: a batch
with deletes re-evaluates everything (positions shift), rank-based queries
re-evaluate on any mutation (one object can shift every rank), but a range
query is only re-evaluated when a touched MBR intrudes within ``epsilon``
of its query — a provably-pruned insert merely patches the stored result's
``pruned`` count, and an untouched neighbourhood skips the query entirely.
Mutations and registrations serialise on one ``asyncio`` lock, and the
coalescing key folds the snapshot epoch, so a result computed at epoch
``E`` can never be served for a request admitted at ``E+1``.

Everything runs on the standard library: the north star forbids new
runtime dependencies, and ``asyncio.start_server`` plus the minimal
HTTP/1.1 layer in ``gateway/http.py`` is all the surface the service
needs.

The module is longer than the repository's ~600-line guideline because
the routes, tenant budgets, coalescing map and standing-query registry all
run on the one event loop and share the one mutation lock and epoch: a
split would spread that single ordering argument over several modules.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from dataclasses import dataclass
from typing import Optional

from ..engine.errors import (
    DeadlineExceeded,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from ..geometry import min_dist
from .codec import (
    STANDING_KINDS,
    CodecError,
    canonical_json,
    decode_mutations,
    decode_query,
    encode_result,
    request_key,
)
from .http import (
    DEFAULT_MAX_BODY_BYTES,
    DEFAULT_MAX_HEADER_BYTES,
    HttpRequest,
    ProtocolError,
    encode_response,
    read_request,
)
from .metrics import GatewayMetrics

__all__ = ["AsyncGateway", "GatewayConfig", "GatewayServer"]


@dataclass(frozen=True)
class GatewayConfig:
    """Tunables of one gateway instance.

    Parameters
    ----------
    host / port:
        Listen address.  Port 0 (the default) binds an ephemeral port —
        read the actual one from :attr:`AsyncGateway.address`.
    default_timeout_ms:
        Deadline applied to requests that do not carry ``timeout_ms``
        themselves (``None`` = no deadline).
    coalesce:
        Whether in-flight requests with equal request keys share one
        evaluation.  On by default; disable to measure its effect.
    coalesce_grace_seconds:
        Extra wait a coalesced follower grants the shared future beyond
        its own timeout before answering 504 (the leader's deadline may
        be marginally later than the follower's).
    tenant_budget:
        Refinement iterations (scheduler steps) each tenant may consume
        per ``tenant_refill_seconds`` window; ``None`` disables tenant
        budgets.  Enforcement is post-paid: admission requires at least
        one whole token, and completed batches charge their actual
        ``BatchReport.scheduler_steps`` (floored at one), so one burst
        can overdraw and the tenant then waits out the debt (429 +
        ``Retry-After``).
    tenant_refill_seconds:
        Length of the budget window the bucket refills over.
    max_batch_queries:
        Upper bound on ``queries`` per ``POST /v1/batch`` call.
    max_mutation_ops:
        Upper bound on operations per ``POST /v1/mutate`` call.
    max_standing_queries:
        Registry capacity for ``POST /v1/standing``; registrations beyond
        it answer 429 until entries are deleted.
    drain_grace_seconds:
        How long :meth:`AsyncGateway.close` waits for in-flight requests
        before force-closing connections.
    max_header_bytes / max_body_bytes:
        HTTP framing limits, forwarded to ``http.read_request``.
    """

    host: str = "127.0.0.1"
    port: int = 0
    default_timeout_ms: Optional[int] = None
    coalesce: bool = True
    coalesce_grace_seconds: float = 0.5
    tenant_budget: Optional[int] = None
    tenant_refill_seconds: float = 1.0
    max_batch_queries: int = 1024
    max_mutation_ops: int = 1024
    max_standing_queries: int = 256
    drain_grace_seconds: float = 10.0
    max_header_bytes: int = DEFAULT_MAX_HEADER_BYTES
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES


class _TenantBucket:
    """Post-paid token bucket: admit on a whole token, charge actuals."""

    def __init__(self, capacity: float, refill_seconds: float):
        self._capacity = float(capacity)
        self._refill_per_second = float(capacity) / float(refill_seconds)
        self._tokens = float(capacity)
        self._updated = time.monotonic()

    def _refresh(self, now: float) -> None:
        self._tokens = min(
            self._capacity,
            self._tokens + (now - self._updated) * self._refill_per_second,
        )
        self._updated = now

    def retry_after(self) -> Optional[float]:
        """``None`` if the tenant may submit now, else seconds until it may.

        Admission requires one whole token, so a tenant that just drained
        (or overdrew) its budget cannot slip back in on the sliver the
        bucket refilled since the charge.
        """
        self._refresh(time.monotonic())
        if self._tokens >= 1.0:
            return None
        return (1.0 - self._tokens) / self._refill_per_second

    def charge(self, amount: float) -> None:
        """Deduct the actual cost of a completed batch (may overdraw)."""
        self._refresh(time.monotonic())
        self._tokens -= float(amount)


@dataclass
class _StandingQuery:
    """One registered standing query and its latest maintained result.

    ``payload`` is the canonical result JSON at ``epoch``; ``error`` is set
    instead when the last refresh failed (e.g. the document referenced a
    position that a delete removed) — the entry then re-evaluates on every
    subsequent mutation until it recovers or is deleted.
    """

    id: str
    document: dict
    kind: str
    epoch: int
    payload: Optional[bytes]
    error: Optional[str] = None


@dataclass(frozen=True)
class _TouchProfile:
    """What a mutation batch touched, captured *before* it applied.

    ``mbrs`` holds the new MBR of every insert and both the old and new
    MBR of every update — the conservative footprint a standing query must
    be checked against.  ``positions`` are the (post-batch) positions whose
    object content changed.  Only meaningful when ``has_delete`` is false:
    deletes shift positions, and the registry re-evaluates everything.
    """

    has_delete: bool
    inserts: int
    mbrs: tuple
    positions: frozenset


class _JsonError(Exception):
    """Internal control-flow carrier for an error response."""

    def __init__(self, status: int, message: str, headers: Optional[dict] = None):
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


class AsyncGateway:
    """The gateway proper: routes, coalescing, budgets, error mapping.

    Owns no event loop and no thread — construct it inside a running loop,
    ``await start()``, and ``await close()`` when done.  Tests and scripts
    that live outside asyncio should use :class:`GatewayServer`, which
    hosts one of these on a background loop thread.  The wrapped
    :class:`~repro.engine.QueryService` is borrowed, never closed: the
    caller that built the service decides its lifetime.
    """

    def __init__(
        self,
        service,
        config: Optional[GatewayConfig] = None,
        *,
        metrics: Optional[GatewayMetrics] = None,
    ):
        self.service = service
        self.config = config if config is not None else GatewayConfig()
        self.metrics = metrics if metrics is not None else GatewayMetrics()
        self._inflight: dict[bytes, asyncio.Future] = {}
        self._tenants: dict[str, _TenantBucket] = {}
        self._standing: dict[str, _StandingQuery] = {}
        self._standing_seq = 0
        # serialises mutations (and standing registrations, which must pin
        # an epoch across their initial evaluation) on the loop thread
        self._mutate_lock = asyncio.Lock()
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._active = 0
        self._idle: Optional[asyncio.Event] = None
        self._closing = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> tuple[str, int]:
        """Bind the listen socket and return the bound ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("gateway already started")
        # spawn every worker process before the first socket exists: a
        # fork-start worker spawned lazily mid-traffic would inherit the
        # accepted connection fds and keep them alive past client close
        self.service.warm()
        self._idle = asyncio.Event()
        self._idle.set()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — meaningful after :meth:`start`."""
        if self._server is None:
            raise RuntimeError("gateway not started")
        return self._server.sockets[0].getsockname()[:2]

    async def close(self, *, drain: bool = True) -> None:
        """Stop accepting, optionally drain in-flight requests, disconnect.

        With ``drain=True`` (the default) every request already admitted
        is given up to ``drain_grace_seconds`` to complete and be written
        back before connections are force-closed — the graceful-shutdown
        contract ``tests/test_gateway.py`` exercises.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain and self._idle is not None and self._active:
            try:
                await asyncio.wait_for(
                    self._idle.wait(), self.config.drain_grace_seconds
                )
            except asyncio.TimeoutError:
                pass
        for writer in list(self._writers):
            writer.close()

    # ------------------------------------------------------------------ #
    # connection loop
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connection_opened()
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(
                        reader,
                        max_header_bytes=self.config.max_header_bytes,
                        max_body_bytes=self.config.max_body_bytes,
                    )
                except ProtocolError as error:
                    self.metrics.response_sent(error.status)
                    writer.write(
                        encode_response(
                            error.status,
                            canonical_json({"error": str(error)}),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = request.keep_alive and not self._closing
                status, body, extra = await self._dispatch(request)
                writer.write(
                    encode_response(status, body, headers=extra, keep_alive=keep_alive)
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self.metrics.connection_closed()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    async def _dispatch(self, request: HttpRequest) -> tuple[int, bytes, dict]:
        if request.path == "/healthz":
            if request.method != "GET":
                return self._plain_error(405, "healthz only supports GET")
            return self._healthz()
        if request.path == "/metrics":
            if request.method != "GET":
                return self._plain_error(405, "metrics only supports GET")
            return self._metrics()
        if request.path in ("/v1/query", "/v1/batch"):
            if request.method != "POST":
                return self._plain_error(405, f"{request.path} only supports POST")
            return await self._guarded(request, self._query_handler)
        if request.path == "/v1/mutate":
            if request.method != "POST":
                return self._plain_error(405, "/v1/mutate only supports POST")
            return await self._guarded(request, self._mutate_handler)
        if request.path == "/v1/standing":
            if request.method == "POST":
                return await self._guarded(request, self._standing_register)
            if request.method == "GET":
                return await self._guarded(request, self._standing_list)
            return self._plain_error(405, "/v1/standing supports POST and GET")
        if request.path.startswith("/v1/standing/"):
            if request.method == "GET":
                return await self._guarded(request, self._standing_get)
            if request.method == "DELETE":
                return await self._guarded(request, self._standing_delete)
            return self._plain_error(
                405, "/v1/standing/<id> supports GET and DELETE"
            )
        return self._plain_error(404, f"no route for {request.path!r}")

    def _plain_error(self, status: int, message: str) -> tuple[int, bytes, dict]:
        self.metrics.response_sent(status)
        return status, canonical_json({"error": message}), {}

    def _healthz(self) -> tuple[int, bytes, dict]:
        closed = self.service.closed
        body = canonical_json(
            {
                "status": "closed" if closed else "ok",
                "workers": self.service.workers,
                "queue_depth": self.metrics.in_flight,
                "epoch": self.service.epoch,
            }
        )
        status = 503 if closed else 200
        self.metrics.response_sent(status)
        return status, body, {}

    def _metrics(self) -> tuple[int, bytes, dict]:
        body = canonical_json(
            {
                "gateway": self.metrics.snapshot(),
                "service": {
                    "closed": self.service.closed,
                    "workers": self.service.workers,
                    "epoch": self.service.epoch,
                    "pending_batches": self.service.pending_batches,
                    "pending_requests": self.service.pending_requests,
                    "worker_respawns": self.service.worker_respawns,
                },
                "store": self.service.bound_store_stats(),
                "standing_queries": len(self._standing),
            }
        )
        self.metrics.response_sent(200)
        return 200, body, {}

    # ------------------------------------------------------------------ #
    # the query path
    # ------------------------------------------------------------------ #
    async def _guarded(self, request: HttpRequest, handler) -> tuple[int, bytes, dict]:
        """Run one route handler under the shared metrics + error ladder.

        Every typed failure maps onto its status code (400 codec, 429
        overload, 503 closed, 504 deadline, 500 anything else) with a JSON
        error body, and the in-flight accounting that gates graceful drain
        brackets the handler regardless of outcome.
        """
        started = time.monotonic()
        self.metrics.request_started()
        self._active += 1
        if self._idle is not None:
            self._idle.clear()
        try:
            status, out, headers = await handler(request)
        except _JsonError as error:
            status = error.status
            out = canonical_json({"error": str(error)})
            headers = error.headers
        except CodecError as error:
            status, out, headers = 400, canonical_json({"error": str(error)}), {}
        except ServiceOverloadedError as error:
            status = 429
            out = canonical_json({"error": str(error)})
            headers = {"Retry-After": "1"}
        except (DeadlineExceeded, asyncio.TimeoutError) as error:
            status = 504
            message = str(error) or "deadline exceeded before the result was ready"
            out, headers = canonical_json({"error": message}), {}
        except ServiceClosedError as error:
            status, out, headers = 503, canonical_json({"error": str(error)}), {}
        except Exception as error:  # noqa: BLE001 - every response must be well-formed
            status = 500
            out = canonical_json({"error": f"{type(error).__name__}: {error}"})
            headers = {}
        finally:
            self._active -= 1
            if self._active == 0 and self._idle is not None:
                self._idle.set()
        self.metrics.request_finished(status, time.monotonic() - started)
        return status, out, headers

    async def _query_handler(self, request: HttpRequest) -> tuple[int, bytes, dict]:
        body = self._run_route_checks(request)
        if request.path == "/v1/query":
            payloads = await self._evaluate_documents(
                [self._strip_transport(body)], *self._transport_fields(body)
            )
            return 200, b'{"result":' + payloads[0] + b"}", {}
        queries = body.get("queries")
        if not isinstance(queries, list) or not queries:
            raise _JsonError(400, "batch body must have a non-empty 'queries' list")
        if len(queries) > self.config.max_batch_queries:
            raise _JsonError(
                413,
                f"batch of {len(queries)} queries exceeds the "
                f"{self.config.max_batch_queries} limit",
            )
        payloads = await self._evaluate_documents(
            queries, *self._transport_fields(body)
        )
        return 200, b'{"results":[' + b",".join(payloads) + b"]}", {}

    def _run_route_checks(self, request: HttpRequest) -> dict:
        try:
            body = json.loads(request.body)
        except (ValueError, UnicodeDecodeError) as error:
            raise _JsonError(400, f"body is not valid JSON: {error}") from error
        if not isinstance(body, dict):
            raise _JsonError(400, "body must be a JSON object")
        return body

    @staticmethod
    def _strip_transport(document: dict) -> dict:
        return {
            key: value
            for key, value in document.items()
            if key not in ("timeout_ms", "tenant")
        }

    def _transport_fields(self, document: dict) -> tuple[Optional[int], Optional[str]]:
        timeout_ms = document.get("timeout_ms", self.config.default_timeout_ms)
        if timeout_ms is not None:
            if (
                isinstance(timeout_ms, bool)
                or not isinstance(timeout_ms, int)
                or timeout_ms <= 0
            ):
                raise _JsonError(
                    400, f"timeout_ms must be a positive integer, got {timeout_ms!r}"
                )
        tenant = document.get("tenant")
        if tenant is not None and not isinstance(tenant, str):
            raise _JsonError(400, f"tenant must be a string, got {tenant!r}")
        return timeout_ms, tenant

    def _admit_tenant(self, tenant: Optional[str]) -> Optional[_TenantBucket]:
        if tenant is None or self.config.tenant_budget is None:
            return None
        bucket = self._tenants.get(tenant)
        if bucket is None:
            bucket = _TenantBucket(
                self.config.tenant_budget, self.config.tenant_refill_seconds
            )
            self._tenants[tenant] = bucket
        retry_after = bucket.retry_after()
        if retry_after is not None:
            self.metrics.tenant_rejected()
            raise _JsonError(
                429,
                f"tenant {tenant!r} is out of iteration budget",
                headers={"Retry-After": str(max(1, math.ceil(retry_after)))},
            )
        return bucket

    async def _evaluate_documents(
        self, documents: list, timeout_ms: Optional[int], tenant: Optional[str]
    ) -> list[bytes]:
        """Decode, admit, coalesce, submit and await a list of query docs.

        Returns one canonical-JSON payload per document, in order.  All
        error mapping happens in the caller — this method raises the
        typed errors themselves.
        """
        loop = asyncio.get_running_loop()
        database = self.service.engine.database
        decoded = [decode_query(document, database) for document in documents]
        bucket = self._admit_tenant(tenant)
        if self._closing:
            raise ServiceClosedError("gateway is shutting down")
        timeout_seconds = None if timeout_ms is None else timeout_ms / 1000.0
        deadline_epoch = (
            None if timeout_seconds is None else time.time() + timeout_seconds
        )

        futures: list[asyncio.Future] = []
        fresh: list[tuple[object, asyncio.Future]] = []
        for query in decoded:
            key = request_key(database, query) if self.config.coalesce else None
            shared = self._inflight.get(key) if key is not None else None
            if shared is not None:
                self.metrics.coalesce_hit()
                futures.append(shared)
                continue
            future = loop.create_future()
            if key is not None:
                self._inflight[key] = future
                future.add_done_callback(
                    lambda done, key=key: (
                        self._inflight.pop(key)
                        if self._inflight.get(key) is done
                        else None
                    )
                )
            futures.append(future)
            fresh.append((query, future))

        if fresh:
            # No await between the map insertions above and this submit:
            # nobody else can be waiting on the fresh futures yet, so a
            # failed submit may simply cancel them (dropping the map keys
            # via the done callbacks) and surface the error once, here.
            try:
                batch = self.service.submit(
                    [query for query, _ in fresh], deadline_epoch=deadline_epoch
                )
            except ValueError as error:
                for _, future in fresh:
                    future.cancel()
                if deadline_epoch is not None and deadline_epoch <= time.time():
                    raise DeadlineExceeded(
                        f"deadline of {timeout_ms} ms expired before submission"
                    ) from error
                raise
            except ServiceError:
                for _, future in fresh:
                    future.cancel()
                raise
            fresh_futures = [future for _, future in fresh]
            batch.add_done_callback(
                lambda done_batch: self._on_batch_done(
                    loop, done_batch, fresh_futures, bucket
                )
            )

        wait_budget = (
            None
            if timeout_seconds is None
            else timeout_seconds + self.config.coalesce_grace_seconds
        )
        payloads = []
        for future in futures:
            # shield: a follower timing out must not cancel the shared
            # evaluation other requests (and the leader) still await
            payloads.append(
                await asyncio.wait_for(asyncio.shield(future), wait_budget)
            )
        return payloads

    def _on_batch_done(self, loop, batch, futures, bucket) -> None:
        # runs on the service dispatcher thread — marshal onto the loop
        try:
            loop.call_soon_threadsafe(self._resolve_batch, batch, futures, bucket)
        except RuntimeError:
            pass  # loop already closed; the waiters are gone with it

    def _resolve_batch(self, batch, futures, bucket) -> None:
        """Fan one resolved batch out to its per-request futures (loop thread).

        Must never leave a future pending: any failure while accounting or
        encoding becomes the futures' exception, so waiters always wake.
        """
        try:
            error = batch.exception()
            if error is None:
                results = batch.result()
                report = batch.report()
                self.metrics.record_report(report)
                if bucket is not None:
                    # a fully-pruned batch reports zero scheduler steps but
                    # still consumed admission: floor the charge at one token
                    bucket.charge(max(1, report.scheduler_steps))
                payloads = [canonical_json(encode_result(r)) for r in results]
        except Exception as failure:  # noqa: BLE001 - routed to the waiters
            error = failure
        if error is not None:
            for future in futures:
                if not future.done():
                    future.set_exception(error)
                    # mark retrieved now: a follower that already timed out
                    # will never await this future, and the error reaches
                    # every live waiter regardless
                    future.exception()
            return
        for future, payload in zip(futures, payloads):
            if not future.done():
                future.set_result(payload)

    # ------------------------------------------------------------------ #
    # the mutation path and the standing-query registry
    # ------------------------------------------------------------------ #
    async def _mutate_handler(self, request: HttpRequest) -> tuple[int, bytes, dict]:
        body = self._run_route_checks(request)
        ops = body.get("mutations")
        if not isinstance(ops, list) or not ops:
            raise _JsonError(400, "mutate body must have a non-empty 'mutations' list")
        if len(ops) > self.config.max_mutation_ops:
            raise _JsonError(
                413,
                f"batch of {len(ops)} operations exceeds the "
                f"{self.config.max_mutation_ops} limit",
            )
        async with self._mutate_lock:
            if self._closing:
                raise ServiceClosedError("gateway is shutting down")
            database = self.service.engine.database
            mutations = decode_mutations(ops, database)
            profile = self._touch_profile(database, mutations)
            try:
                epoch = await self._apply_service_mutations(mutations)
            except ValueError as error:
                raise _JsonError(400, f"mutation rejected: {error}") from error
            summary = await self._refresh_standing(profile)
        out = canonical_json(
            {
                "applied": len(mutations),
                "epoch": epoch,
                "size": len(self.service.engine.database),
                "standing": summary,
            }
        )
        return 200, out, {}

    async def _apply_service_mutations(self, mutations) -> int:
        """Await the service's mutation barrier from the event loop."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        ticket = self.service.submit_mutations(mutations)

        def _marshal(done_ticket) -> None:
            # runs on the service dispatcher thread — marshal onto the loop
            try:
                loop.call_soon_threadsafe(self._resolve_ticket, future, done_ticket)
            except RuntimeError:
                pass  # loop already closed; the waiter is gone with it

        ticket.add_done_callback(_marshal)
        return await future

    @staticmethod
    def _resolve_ticket(future, ticket) -> None:
        if future.done():  # pragma: no cover - loop shutdown race
            return
        error = ticket.exception()
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(ticket.result())

    @staticmethod
    def _touch_profile(database, mutations) -> _TouchProfile:
        """Conservative footprint of a batch against the pre-apply snapshot."""
        from ..uncertain import Delete, Insert, Update

        has_delete = False
        inserts = 0
        mbrs: list = []
        positions: set[int] = set()
        appended: list = []  # MBRs of objects this batch inserted, by order
        latest: dict[int, object] = {}  # position -> MBR after earlier ops
        base = len(database)
        for mutation in mutations:
            if isinstance(mutation, Delete):
                has_delete = True
            elif isinstance(mutation, Insert):
                inserts += 1
                mbrs.append(mutation.obj.mbr)
                appended.append(mutation.obj.mbr)
            elif isinstance(mutation, Update):
                position = mutation.position
                old = latest.get(position)
                if old is None:
                    old = (
                        database[position].mbr
                        if position < base
                        else appended[position - base]
                    )
                mbrs.append(old)
                mbrs.append(mutation.obj.mbr)
                latest[position] = mutation.obj.mbr
                positions.add(position)
        return _TouchProfile(
            has_delete=has_delete,
            inserts=inserts,
            mbrs=tuple(mbrs),
            positions=frozenset(positions),
        )

    async def _refresh_standing(self, profile: _TouchProfile) -> dict:
        """Bring every standing query to the new epoch, skipping what it can.

        The skip/patch fast paths exist only for range queries, whose
        per-object membership is independent of the rest of the database: a
        touched MBR strictly farther than ``epsilon`` from the query cannot
        change any per-object probability, so an insert there merely
        increments the stored ``pruned`` count and an update changes
        nothing.  Rank-based kinds (knn, ranking) re-evaluate on every
        mutation, and any delete re-evaluates everything — positions in
        both the registry's documents and its stored results shift.
        """
        summary = {"reevaluated": 0, "patched": 0, "skipped": 0, "errors": 0}
        if not self._standing:
            return summary
        database = self.service.engine.database
        pending = []
        for standing in self._standing.values():
            decision = self._standing_decision(standing, database, profile)
            if decision == "reevaluate":
                pending.append(standing)
            elif decision == "patch":
                document = json.loads(standing.payload)
                document["pruned"] += profile.inserts
                standing.payload = canonical_json(document)
                standing.epoch = database.epoch
                summary["patched"] += 1
            else:
                standing.epoch = database.epoch
                summary["skipped"] += 1
        outcomes = await asyncio.gather(
            *(self._reevaluate_standing(standing) for standing in pending)
        )
        for recovered in outcomes:
            summary["reevaluated" if recovered else "errors"] += 1
        return summary

    def _standing_decision(
        self, standing: _StandingQuery, database, profile: _TouchProfile
    ) -> str:
        if (
            profile.has_delete
            or standing.kind != "range"
            or standing.error is not None
        ):
            return "reevaluate"
        try:
            decoded = decode_query(standing.document, database)
        except CodecError:
            return "reevaluate"  # surfaces as this entry's error state
        spec = decoded.query
        if isinstance(spec, int):
            if spec in profile.positions:
                return "reevaluate"  # the query object itself changed
            query_mbr = database[spec].mbr
        else:
            query_mbr = spec.mbr
        p = self.service.engine.p
        if any(
            min_dist(touched, query_mbr, p) <= decoded.epsilon
            for touched in profile.mbrs
        ):
            return "reevaluate"
        return "patch" if profile.inserts else "skip"

    async def _reevaluate_standing(self, standing: _StandingQuery) -> bool:
        try:
            payloads = await self._evaluate_documents([standing.document], None, None)
        except Exception as error:  # noqa: BLE001 - stored, not propagated
            standing.payload = None
            standing.error = f"{type(error).__name__}: {error}"
            standing.epoch = self.service.epoch
            return False
        standing.payload = payloads[0]
        standing.error = None
        standing.epoch = self.service.epoch
        return True

    @staticmethod
    def _standing_body(standing: _StandingQuery) -> bytes:
        if standing.payload is None:
            return canonical_json(
                {
                    "epoch": standing.epoch,
                    "error": standing.error,
                    "id": standing.id,
                    "kind": standing.kind,
                }
            )
        return (
            b'{"epoch":%d,"id":%s,"kind":%s,"result":%s}'
            % (
                standing.epoch,
                canonical_json(standing.id),
                canonical_json(standing.kind),
                standing.payload,
            )
        )

    async def _standing_register(self, request: HttpRequest) -> tuple[int, bytes, dict]:
        body = self._run_route_checks(request)
        document = body.get("query")
        if not isinstance(document, dict):
            raise _JsonError(400, "standing body must have a 'query' object")
        timeout_ms, tenant = self._transport_fields(body)
        stripped = self._strip_transport(document)
        kind = stripped.get("type")
        if kind not in STANDING_KINDS:
            raise _JsonError(
                400,
                f"standing queries support types {STANDING_KINDS}, got {kind!r}",
            )
        if len(self._standing) >= self.config.max_standing_queries:
            raise _JsonError(
                429,
                f"standing-query registry is full "
                f"({self.config.max_standing_queries} entries)",
                headers={"Retry-After": "1"},
            )
        async with self._mutate_lock:
            # the lock pins the epoch across the initial evaluation: no
            # mutation can land between evaluating and recording it
            payloads = await self._evaluate_documents([stripped], timeout_ms, tenant)
            self._standing_seq += 1
            standing = _StandingQuery(
                id=f"sq-{self._standing_seq}",
                document=stripped,
                kind=kind,
                epoch=self.service.epoch,
                payload=payloads[0],
            )
            self._standing[standing.id] = standing
        return 200, self._standing_body(standing), {}

    async def _standing_list(self, request: HttpRequest) -> tuple[int, bytes, dict]:
        entries = [
            {"epoch": s.epoch, "id": s.id, "kind": s.kind, "error": s.error}
            for s in self._standing.values()
        ]
        return 200, canonical_json({"epoch": self.service.epoch, "standing": entries}), {}

    def _standing_id(self, request: HttpRequest) -> _StandingQuery:
        standing_id = request.path[len("/v1/standing/"):]
        standing = self._standing.get(standing_id)
        if standing is None:
            raise _JsonError(404, f"no standing query {standing_id!r}")
        return standing

    async def _standing_get(self, request: HttpRequest) -> tuple[int, bytes, dict]:
        return 200, self._standing_body(self._standing_id(request)), {}

    async def _standing_delete(self, request: HttpRequest) -> tuple[int, bytes, dict]:
        standing = self._standing_id(request)
        del self._standing[standing.id]
        return 200, canonical_json({"id": standing.id, "removed": True}), {}


class GatewayServer:
    """Synchronous host for :class:`AsyncGateway`: loop on a daemon thread.

    The entry point for tests, scripts and the quickstart: construct with
    a running :class:`~repro.engine.QueryService`, read :attr:`url`, make
    plain blocking HTTP calls from any thread, and :meth:`close` (or exit
    the ``with`` block) to drain and stop.  The service itself is left
    open — close it separately.
    """

    def __init__(self, service, config: Optional[GatewayConfig] = None):
        self.gateway = AsyncGateway(service, config)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-gateway", daemon=True
        )
        self._thread.start()
        self._closed = False
        try:
            self._address = asyncio.run_coroutine_threadsafe(
                self.gateway.start(), self._loop
            ).result(timeout=30)
        except BaseException:
            self._stop_loop()
            raise

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        return self._address

    @property
    def url(self) -> str:
        """Base URL of the gateway, e.g. ``http://127.0.0.1:43621``."""
        host, port = self._address
        return f"http://{host}:{port}"

    def metrics(self) -> dict:
        """A point-in-time snapshot of the gateway metrics (thread-safe)."""
        return self.gateway.metrics.snapshot()

    def close(self, *, drain: bool = True) -> None:
        """Drain (by default) and stop the gateway and its loop thread."""
        if self._closed:
            return
        self._closed = True
        try:
            asyncio.run_coroutine_threadsafe(
                self.gateway.close(drain=drain), self._loop
            ).result(timeout=self.gateway.config.drain_grace_seconds + 30)
        finally:
            self._stop_loop()

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        if not self._thread.is_alive():
            self._loop.close()

    def __enter__(self) -> "GatewayServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

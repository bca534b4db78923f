"""The asyncio HTTP gateway in front of :class:`~repro.engine.QueryService`.

Request lifecycle (see ``docs/architecture.md`` · *Network tier*):

1. **Parse** — ``http.read_request`` frames one request; malformed bytes
   answer 400/413/431 and close the connection.
2. **Decode** — ``codec.decode_query`` turns the JSON document into one of
   the five typed query requests; the transport field ``timeout_ms`` is
   stripped first.  Decode failures answer 400 before anything touches
   the service queue.
3. **Coalesce** — in-flight requests with equal ``codec.request_key``
   share one evaluation: followers await the leader's future and receive
   byte-identical payloads.  The coalescing window is strictly *in
   flight*: the map entry is dropped the moment the future resolves, so
   no stale result is ever served.
4. **Submit** — fresh requests go to ``QueryService.submit`` with the
   client deadline fixed at *arrival* time (``deadline_epoch``), so queue
   wait counts against the budget.  The batch future re-enters the event
   loop via ``ServiceBatch.add_done_callback`` +
   ``loop.call_soon_threadsafe`` — no loop thread ever blocks on a batch.
5. **Respond** — results serialise through ``codec.encode_result`` /
   ``codec.canonical_json``; typed service errors map onto status codes
   (429/503/504, anything else 500) with JSON error bodies.

The gateway also fronts the **mutation path**: ``POST /v1/mutate`` decodes
a sequential operation list (``codec.decode_mutations``) and applies it
through the :meth:`QueryService.submit_mutations` snapshot barrier.
Mutations serialise on one ``asyncio`` lock, so every batch's positions
are checked against the snapshot it applies to, and the coalescing key
folds the snapshot epoch, so a result computed at epoch ``E`` can never be
served for a request admitted at ``E+1``.

Everything runs on the standard library: the north star forbids new
runtime dependencies, and ``asyncio.start_server`` plus the minimal
HTTP/1.1 layer in ``gateway/http.py`` is all the surface the service
needs.  The synchronous thread host lives in ``gateway/host.py``.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Optional

from ..engine.errors import (
    DeadlineExceeded,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from .codec import (
    CodecError,
    canonical_json,
    decode_mutations,
    decode_query,
    encode_result,
    request_key,
)
from .http import HttpRequest, ProtocolError, encode_response, read_request
from .metrics import GatewayMetrics

__all__ = ["AsyncGateway", "GatewayConfig"]

#: Extra wait a coalesced follower grants the shared future beyond its own
#: timeout before answering 504 (the leader's deadline may be marginally
#: later than the follower's).
COALESCE_GRACE_SECONDS = 0.5

#: Upper bound on ``queries`` per ``POST /v1/batch`` call (413 beyond).
MAX_BATCH_QUERIES = 1024

#: Upper bound on operations per ``POST /v1/mutate`` call (413 beyond).
MAX_MUTATION_OPS = 1024

#: How long :meth:`AsyncGateway.close` waits for in-flight requests before
#: force-closing connections.
DRAIN_GRACE_SECONDS = 10.0


@dataclass(frozen=True)
class GatewayConfig:
    """Settings of one gateway instance, validated at construction.

    Parameters
    ----------
    host / port:
        Listen address.  Port 0 (the default) binds an ephemeral port —
        read the actual one from :attr:`AsyncGateway.address`.  A port
        outside ``0..65535`` raises :class:`ValueError`.
    default_timeout_ms:
        Deadline applied to requests that do not carry ``timeout_ms``
        themselves: ``None`` (no deadline) or a positive integer; anything
        else raises :class:`ValueError` here rather than turning every
        client request into a 400.
    """

    host: str = "127.0.0.1"
    port: int = 0
    default_timeout_ms: Optional[int] = None

    def __post_init__(self) -> None:
        if not _is_int(self.port) or not 0 <= self.port <= 65535:
            raise ValueError(f"port must be an integer in 0..65535, got {self.port!r}")
        timeout = self.default_timeout_ms
        if timeout is not None and (not _is_int(timeout) or timeout <= 0):
            raise ValueError(
                f"default_timeout_ms must be None or a positive integer, got {timeout!r}"
            )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class _JsonError(Exception):
    """Internal control-flow carrier for an error response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class AsyncGateway:
    """The gateway proper: routes, coalescing, error mapping.

    Owns no event loop and no thread — construct it inside a running loop,
    ``await start()``, and ``await close()`` when done.  Tests and scripts
    that live outside asyncio should use :class:`~repro.gateway.GatewayServer`,
    which hosts one of these on a background loop thread.  The wrapped
    :class:`~repro.engine.QueryService` is borrowed, never closed: the
    caller that built the service decides its lifetime.
    """

    def __init__(self, service, config: Optional[GatewayConfig] = None):
        self.service = service
        self.config = config if config is not None else GatewayConfig()
        self.metrics = GatewayMetrics()
        self._inflight: dict[bytes, asyncio.Future] = {}
        # serialises mutations on the loop thread: each batch decodes against
        # the snapshot it applies to
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
        is given up to :data:`DRAIN_GRACE_SECONDS` to complete and be
        written back before connections are force-closed — the
        graceful-shutdown contract ``tests/test_gateway.py`` exercises.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain and self._idle is not None and self._active:
            try:
                await asyncio.wait_for(self._idle.wait(), DRAIN_GRACE_SECONDS)
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
                    request = await read_request(reader)
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
            status, out, headers = error.status, canonical_json({"error": str(error)}), {}
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
                [self._strip_transport(body)], self._timeout_ms(body)
            )
            return 200, b'{"result":' + payloads[0] + b"}", {}
        queries = body.get("queries")
        if not isinstance(queries, list) or not queries:
            raise _JsonError(400, "batch body must have a non-empty 'queries' list")
        if len(queries) > MAX_BATCH_QUERIES:
            raise _JsonError(
                413,
                f"batch of {len(queries)} queries exceeds the "
                f"{MAX_BATCH_QUERIES} limit",
            )
        payloads = await self._evaluate_documents(queries, self._timeout_ms(body))
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
        return {key: value for key, value in document.items() if key != "timeout_ms"}

    def _timeout_ms(self, document: dict) -> Optional[int]:
        timeout_ms = document.get("timeout_ms", self.config.default_timeout_ms)
        if timeout_ms is not None and (not _is_int(timeout_ms) or timeout_ms <= 0):
            raise _JsonError(
                400, f"timeout_ms must be a positive integer, got {timeout_ms!r}"
            )
        return timeout_ms

    async def _evaluate_documents(
        self, documents: list, timeout_ms: Optional[int]
    ) -> list[bytes]:
        """Decode, coalesce, submit and await a list of query docs.

        Returns one canonical-JSON payload per document, in order.  All
        error mapping happens in the caller — this method raises the
        typed errors themselves.
        """
        loop = asyncio.get_running_loop()
        database = self.service.engine.database
        decoded = [decode_query(document, database) for document in documents]
        if self._closing:
            raise ServiceClosedError("gateway is shutting down")
        timeout_seconds = None if timeout_ms is None else timeout_ms / 1000.0
        deadline_epoch = (
            None if timeout_seconds is None else time.time() + timeout_seconds
        )

        futures: list[asyncio.Future] = []
        fresh: list[tuple[object, asyncio.Future]] = []
        for query in decoded:
            key = request_key(database, query)
            shared = self._inflight.get(key)
            if shared is not None:
                self.metrics.coalesce_hit()
                futures.append(shared)
                continue
            future = loop.create_future()
            self._inflight[key] = future
            future.add_done_callback(
                lambda done, key=key: (
                    self._inflight.pop(key) if self._inflight.get(key) is done else None
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
                lambda done_batch: self._on_batch_done(loop, done_batch, fresh_futures)
            )

        wait_budget = (
            None if timeout_seconds is None else timeout_seconds + COALESCE_GRACE_SECONDS
        )
        payloads = []
        for future in futures:
            # shield: a follower timing out must not cancel the shared
            # evaluation other requests (and the leader) still await
            payloads.append(
                await asyncio.wait_for(asyncio.shield(future), wait_budget)
            )
        return payloads

    def _on_batch_done(self, loop, batch, futures) -> None:
        # runs on the service dispatcher thread — marshal onto the loop
        try:
            loop.call_soon_threadsafe(self._resolve_batch, batch, futures)
        except RuntimeError:
            pass  # loop already closed; the waiters are gone with it

    def _resolve_batch(self, batch, futures) -> None:
        """Fan one resolved batch out to its per-request futures (loop thread).

        Must never leave a future pending: any failure while accounting or
        encoding becomes the futures' exception, so waiters always wake.
        """
        try:
            error = batch.exception()
            if error is None:
                results = batch.result()
                self.metrics.record_report(batch.report())
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
    # the mutation path
    # ------------------------------------------------------------------ #
    async def _mutate_handler(self, request: HttpRequest) -> tuple[int, bytes, dict]:
        body = self._run_route_checks(request)
        ops = body.get("mutations")
        if not isinstance(ops, list) or not ops:
            raise _JsonError(400, "mutate body must have a non-empty 'mutations' list")
        if len(ops) > MAX_MUTATION_OPS:
            raise _JsonError(
                413,
                f"batch of {len(ops)} operations exceeds the "
                f"{MAX_MUTATION_OPS} limit",
            )
        async with self._mutate_lock:
            if self._closing:
                raise ServiceClosedError("gateway is shutting down")
            mutations = decode_mutations(ops, self.service.engine.database)
            try:
                epoch = await self._apply_service_mutations(mutations)
            except ValueError as error:
                raise _JsonError(400, f"mutation rejected: {error}") from error
        out = canonical_json(
            {
                "applied": len(mutations),
                "epoch": epoch,
                "size": len(self.service.engine.database),
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

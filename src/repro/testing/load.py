"""Closed- and open-loop HTTP load generation against the gateway.

The harness behind the gateway soak test (``tests/test_gateway_soak.py``)
and the load-ramp test in ``tests/test_gateway.py``.  Three entry points,
all synchronous (each spins up a private event loop):

* :func:`run_closed_loop` — ``concurrency`` workers, each holding one
  keep-alive connection and issuing its next request the moment the
  previous response lands.  Offered load adapts to service speed; this is
  the shape that finds capacity and drives soak runs.
* :func:`run_open_loop` — requests fired on a fixed arrival schedule
  regardless of completions (bounded by ``max_in_flight``).  Offered load
  is constant; this is the shape that finds overload behaviour.
* :func:`run_ramp` — a sequence of closed-loop steps at increasing
  concurrency, returning one :class:`LoadReport` per step for
  latency-vs-offered-load curves.

Requests come from a ``request_factory(index) -> (path, document)``
callable, so workloads stay deterministic: request ``index`` is a global
sequence number, and the same factory replayed against the same database
produces the same documents.  Latency is recorded into the same
fixed-bucket :class:`~repro.gateway.metrics.LatencyHistogram` the gateway
itself exports, so client-side and server-side quantiles are directly
comparable.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..gateway.metrics import LatencyHistogram

__all__ = ["LoadReport", "run_closed_loop", "run_open_loop", "run_ramp"]

#: ``request_factory`` signature: global request index → (path, JSON document).
RequestFactory = Callable[[int], tuple[str, dict]]


@dataclass
class LoadReport:
    """Outcome of one load-generation run.

    ``offered`` counts requests sent, ``completed`` counts well-formed
    HTTP responses of any status (the per-status split is in
    ``status_counts``), and ``transport_errors`` counts requests that
    died below HTTP (connection refused/reset, malformed response) —
    a healthy run has zero.  ``latency`` carries the histogram snapshot
    (count/mean/max/p50/p95/p99 seconds); ``throughput_rps`` is
    ``completed / duration_seconds``.
    """

    mode: str
    concurrency: int
    duration_seconds: float
    offered: int
    completed: int
    transport_errors: int
    status_counts: dict = field(default_factory=dict)
    latency: dict = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        """Completed responses per second over the whole run."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.completed / self.duration_seconds

    def ok_fraction(self) -> float:
        """Fraction of completed responses with status 200."""
        if not self.completed:
            return 0.0
        return self.status_counts.get(200, 0) / self.completed

    def as_dict(self) -> dict:
        """JSON-safe representation (for load reports)."""
        return {
            "mode": self.mode,
            "concurrency": self.concurrency,
            "duration_seconds": self.duration_seconds,
            "offered": self.offered,
            "completed": self.completed,
            "transport_errors": self.transport_errors,
            "throughput_rps": self.throughput_rps,
            "status_counts": {str(k): v for k, v in sorted(self.status_counts.items())},
            "latency": self.latency,
        }


class _RunState:
    """Shared counters of one run (single event loop — no lock needed)."""

    def __init__(self):
        self.offered = 0
        self.completed = 0
        self.transport_errors = 0
        self.status_counts: dict[int, int] = {}
        self.histogram = LatencyHistogram()
        self.next_index = 0

    def take_index(self) -> int:
        index = self.next_index
        self.next_index += 1
        return index

    def record(self, status: int, latency_seconds: float) -> None:
        self.completed += 1
        self.status_counts[status] = self.status_counts.get(status, 0) + 1
        self.histogram.observe(latency_seconds)


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, dict, bytes]:
    """Parse one fixed-length HTTP/1.1 response off ``reader``."""
    status_line = (await reader.readuntil(b"\r\n")).decode("latin-1").strip()
    parts = status_line.split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ValueError(f"malformed status line: {status_line!r}")
    status = int(parts[1])
    headers: dict[str, str] = {}
    while True:
        line = (await reader.readuntil(b"\r\n")).decode("latin-1")
        if line in ("\r\n", "\n"):
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


def _encode_request(host: str, path: str, document: dict) -> bytes:
    body = json.dumps(document, sort_keys=True, separators=(",", ":")).encode()
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


async def _issue(
    host: str,
    port: int,
    connection: Optional[tuple],
    path: str,
    document: dict,
    state: _RunState,
    timeout: float,
) -> Optional[tuple]:
    """Send one request, record its outcome, return the reusable connection.

    ``connection`` is a ``(reader, writer)`` pair or ``None`` (open one);
    returns the pair if it may be reused, ``None`` if it was closed.
    """
    reader = writer = None
    try:
        if connection is None:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout
            )
        else:
            reader, writer = connection
        state.offered += 1
        started = time.monotonic()
        writer.write(_encode_request(host, path, document))
        await asyncio.wait_for(writer.drain(), timeout)
        status, headers, _body = await asyncio.wait_for(_read_response(reader), timeout)
        state.record(status, time.monotonic() - started)
        if "close" in headers.get("connection", "").lower():
            await _close_connection(writer)
            return None
        return reader, writer
    except (OSError, ValueError, asyncio.TimeoutError, asyncio.IncompleteReadError):
        state.transport_errors += 1
        if writer is not None:
            await _close_connection(writer)
        return None


async def _close_connection(writer: asyncio.StreamWriter) -> None:
    """Close and *await* closure, so no fd outlives the run's event loop."""
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass


async def _closed_loop(
    host: str,
    port: int,
    request_factory: RequestFactory,
    state: _RunState,
    concurrency: int,
    total_requests: Optional[int],
    duration_seconds: Optional[float],
    timeout: float,
) -> float:
    deadline = (
        None if duration_seconds is None else time.monotonic() + duration_seconds
    )

    def stop() -> bool:
        if total_requests is not None and state.next_index >= total_requests:
            return True
        return deadline is not None and time.monotonic() >= deadline

    async def worker() -> None:
        connection = None
        try:
            while not stop():
                path, document = request_factory(state.take_index())
                connection = await _issue(
                    host, port, connection, path, document, state, timeout
                )
        finally:
            if connection is not None:
                await _close_connection(connection[1])

    started = time.monotonic()
    await asyncio.gather(*(worker() for _ in range(concurrency)))
    return time.monotonic() - started


async def _open_loop(
    host: str,
    port: int,
    request_factory: RequestFactory,
    state: _RunState,
    rate_rps: float,
    duration_seconds: float,
    max_in_flight: int,
    timeout: float,
) -> float:
    interval = 1.0 / rate_rps
    gate = asyncio.Semaphore(max_in_flight)
    tasks = []

    async def one(path: str, document: dict) -> None:
        # one connection per request: open-loop arrivals model independent
        # clients, and a response is never waited on before the next send
        async with gate:
            connection = await _issue(host, port, None, path, document, state, timeout)
            if connection is not None:
                await _close_connection(connection[1])

    started = time.monotonic()
    end = started + duration_seconds
    next_send = started
    while time.monotonic() < end:
        now = time.monotonic()
        if now < next_send:
            await asyncio.sleep(next_send - now)
        path, document = request_factory(state.take_index())
        tasks.append(asyncio.ensure_future(one(path, document)))
        next_send += interval
    if tasks:
        await asyncio.gather(*tasks)
    return time.monotonic() - started


def run_closed_loop(
    host: str,
    port: int,
    request_factory: RequestFactory,
    *,
    concurrency: int = 4,
    total_requests: Optional[int] = None,
    duration_seconds: Optional[float] = None,
    timeout: float = 30.0,
) -> LoadReport:
    """Closed-loop run: each worker sends its next request on completion.

    Exactly one of ``total_requests`` / ``duration_seconds`` bounds the
    run (passing both stops at whichever comes first).
    """
    if total_requests is None and duration_seconds is None:
        raise ValueError("pass total_requests and/or duration_seconds")
    state = _RunState()
    elapsed = asyncio.run(
        _closed_loop(
            host,
            port,
            request_factory,
            state,
            concurrency,
            total_requests,
            duration_seconds,
            timeout,
        )
    )
    return LoadReport(
        mode="closed",
        concurrency=concurrency,
        duration_seconds=elapsed,
        offered=state.offered,
        completed=state.completed,
        transport_errors=state.transport_errors,
        status_counts=dict(state.status_counts),
        latency=state.histogram.snapshot(),
    )


def run_open_loop(
    host: str,
    port: int,
    request_factory: RequestFactory,
    *,
    rate_rps: float,
    duration_seconds: float,
    max_in_flight: int = 256,
    timeout: float = 30.0,
) -> LoadReport:
    """Open-loop run: fixed arrival rate, completions don't gate sends."""
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be positive, got {rate_rps!r}")
    state = _RunState()
    elapsed = asyncio.run(
        _open_loop(
            host,
            port,
            request_factory,
            state,
            rate_rps,
            duration_seconds,
            max_in_flight,
            timeout,
        )
    )
    return LoadReport(
        mode="open",
        concurrency=max_in_flight,
        duration_seconds=elapsed,
        offered=state.offered,
        completed=state.completed,
        transport_errors=state.transport_errors,
        status_counts=dict(state.status_counts),
        latency=state.histogram.snapshot(),
    )


def run_ramp(
    host: str,
    port: int,
    request_factory: RequestFactory,
    *,
    concurrencies: tuple = (1, 2, 4, 8),
    requests_per_step: int = 50,
    timeout: float = 30.0,
) -> list[LoadReport]:
    """Closed-loop concurrency ramp: one :class:`LoadReport` per step."""
    return [
        run_closed_loop(
            host,
            port,
            request_factory,
            concurrency=concurrency,
            total_requests=requests_per_step,
            timeout=timeout,
        )
        for concurrency in concurrencies
    ]

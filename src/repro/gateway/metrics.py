"""Gateway-side counters, gauges and latency quantiles.

The gateway exports two kinds of numbers on ``GET /metrics``:

* **engine counters** folded out of every :class:`~repro.engine.BatchReport`
  the service resolves (scheduler steps, refinement iterations, worker
  respawns, chunk retries) —
  the same counters the soak test asserts are *monotone*;
* **gateway counters and gauges** — per-status-code response counts,
  coalesce hits, request/connection totals, in-flight queue depth — plus
  request latency quantiles (p50/p95/p99) from a fixed-bucket histogram.

Everything is guarded by one lock: responses are recorded on the event
loop, but ``/metrics`` snapshots may also be taken from test threads via
:meth:`GatewayServer.metrics <repro.gateway.server.GatewayServer.metrics>`.
The histogram uses fixed log-spaced bucket boundaries rather than raw
samples so a soak run's memory stays constant, and the quantile estimate
(upper edge of the covering bucket) is deterministic for a given stream.
"""

from __future__ import annotations

import bisect
import threading
from typing import Optional, Sequence

__all__ = ["GatewayMetrics", "LatencyHistogram", "default_latency_buckets"]


def default_latency_buckets() -> tuple[float, ...]:
    """Log-spaced latency bucket upper bounds, 100 µs … ~105 s."""
    bounds = []
    edge = 0.0001
    while edge < 120.0:
        bounds.append(edge)
        edge *= 1.5
    return tuple(bounds)


class LatencyHistogram:
    """Fixed-bucket latency histogram with quantile estimates.

    Buckets are defined by ascending upper bounds in seconds; a final
    overflow bucket catches everything above the last bound.  Quantiles
    are reported as the upper bound of the bucket containing the target
    rank — a deterministic over-estimate, which is the safe direction for
    latency SLO gates.  Shared by the gateway metrics and the load
    generator (``repro/testing/load.py``) so both report comparable
    numbers.
    """

    def __init__(self, bounds: Optional[Sequence[float]] = None):
        self._bounds = tuple(bounds) if bounds is not None else default_latency_buckets()
        if list(self._bounds) != sorted(self._bounds) or not self._bounds:
            raise ValueError("bucket bounds must be a non-empty ascending sequence")
        self._counts = [0] * (len(self._bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def observe(self, seconds: float) -> None:
        """Record one latency sample."""
        index = bisect.bisect_left(self._bounds, seconds)
        self._counts[index] += 1
        self._count += 1
        self._sum += seconds
        if seconds > self._max:
            self._max = seconds

    @property
    def count(self) -> int:
        """Number of samples observed."""
        return self._count

    @property
    def mean(self) -> float:
        """Mean latency in seconds (0.0 before any sample)."""
        return self._sum / self._count if self._count else 0.0

    @property
    def max(self) -> float:
        """Largest latency observed in seconds."""
        return self._max

    def quantile(self, q: float) -> float:
        """Latency at quantile ``q`` in [0, 1] (upper bucket edge)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if not self._count:
            return 0.0
        rank = q * self._count
        seen = 0
        for index, bucket_count in enumerate(self._counts):
            seen += bucket_count
            if seen >= rank and bucket_count:
                if index < len(self._bounds):
                    return self._bounds[index]
                return self._max
        return self._max

    def snapshot(self) -> dict:
        """JSON-safe summary: count, mean, max and p50/p95/p99."""
        return {
            "count": self._count,
            "mean_seconds": self.mean,
            "max_seconds": self._max,
            "p50_seconds": self.quantile(0.50),
            "p95_seconds": self.quantile(0.95),
            "p99_seconds": self.quantile(0.99),
        }


class GatewayMetrics:
    """Thread-safe aggregate of everything ``GET /metrics`` exports."""

    def __init__(self):
        self._lock = threading.Lock()
        self._latency = LatencyHistogram()
        self._status_counts: dict[int, int] = {}
        self._requests_total = 0
        self._coalesce_hits = 0
        self._in_flight = 0
        self._connections_open = 0
        self._connections_total = 0
        self._batches_total = 0
        self._engine = {
            "scheduler_steps": 0,
            "result_iterations": 0,
            "worker_respawns": 0,
            "chunk_retries": 0,
        }

    # -- lifecycle of one request/connection ---------------------------- #
    def connection_opened(self) -> None:
        with self._lock:
            self._connections_open += 1
            self._connections_total += 1

    def connection_closed(self) -> None:
        with self._lock:
            self._connections_open -= 1

    def request_started(self) -> None:
        with self._lock:
            self._in_flight += 1

    def request_finished(self, status: int, latency_seconds: float) -> None:
        with self._lock:
            self._in_flight -= 1
            self._requests_total += 1
            self._status_counts[status] = self._status_counts.get(status, 0) + 1
            self._latency.observe(latency_seconds)

    def response_sent(self, status: int) -> None:
        """Count a response that never entered the query path (404, 400...)."""
        with self._lock:
            self._requests_total += 1
            self._status_counts[status] = self._status_counts.get(status, 0) + 1

    def coalesce_hit(self) -> None:
        with self._lock:
            self._coalesce_hits += 1

    def record_report(self, report) -> None:
        """Fold one resolved :class:`~repro.engine.BatchReport` into the totals."""
        with self._lock:
            self._batches_total += 1
            self._engine["scheduler_steps"] += report.scheduler_steps
            self._engine["result_iterations"] += report.result_iterations
            self._engine["worker_respawns"] += report.worker_respawns
            self._engine["chunk_retries"] += report.chunk_retries

    # -- export ---------------------------------------------------------- #
    @property
    def in_flight(self) -> int:
        """Requests admitted but not yet answered (queue depth gauge)."""
        with self._lock:
            return self._in_flight

    @property
    def connections_open(self) -> int:
        """Currently open client connections."""
        with self._lock:
            return self._connections_open

    def snapshot(self) -> dict:
        """One JSON-safe snapshot of every counter, gauge and quantile."""
        with self._lock:
            return {
                "requests_total": self._requests_total,
                "responses_by_status": {
                    str(code): count
                    for code, count in sorted(self._status_counts.items())
                },
                "coalesce_hits": self._coalesce_hits,
                "queue_depth": self._in_flight,
                "connections_open": self._connections_open,
                "connections_total": self._connections_total,
                "latency": self._latency.snapshot(),
                "engine": {"batches_total": self._batches_total, **self._engine},
            }

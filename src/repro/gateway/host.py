"""Synchronous host for the asyncio gateway: its event loop on a thread.

:class:`GatewayServer` is the entry point for callers outside asyncio —
tests, scripts, the README quickstart and the ``bench`` HTTP workload.
The gateway itself (routes, coalescing, error mapping) is
:class:`~repro.gateway.server.AsyncGateway`.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from .server import DRAIN_GRACE_SECONDS, AsyncGateway, GatewayConfig

__all__ = ["GatewayServer"]


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
            ).result(timeout=DRAIN_GRACE_SECONDS + 30)
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

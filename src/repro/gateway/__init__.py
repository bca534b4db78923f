"""Asyncio HTTP gateway over :class:`~repro.engine.QueryService`.

The network tier of the service stack (see ``docs/architecture.md`` ·
*Network tier*): a stdlib-only HTTP/1.1 server exposing the five query
types as JSON over ``POST /v1/query`` / ``POST /v1/batch``, with typed
service errors mapped onto status codes, client deadlines propagated into
service deadlines, in-flight request coalescing on stable request keys,
and ``GET /metrics`` / ``GET /healthz``.  ``POST /v1/mutate`` applies a
mutation batch through the service's snapshot barrier (see
``gateway/server.py``).

Entry points:

* :class:`GatewayServer` — synchronous host (background loop thread,
  ``gateway/host.py``); the right choice for scripts, tests and the
  README quickstart.
* :class:`AsyncGateway` — the gateway itself, for callers that already
  run an event loop.
* ``python -m repro.gateway`` — demo server over a synthetic database.
"""

from .codec import (
    CodecError,
    canonical_json,
    decode_mutations,
    decode_query,
    encode_result,
    request_key,
)
from .http import HttpRequest, ProtocolError, encode_response, read_request
from .host import GatewayServer
from .metrics import GatewayMetrics, LatencyHistogram
from .server import AsyncGateway, GatewayConfig

__all__ = [
    "AsyncGateway",
    "CodecError",
    "GatewayConfig",
    "GatewayMetrics",
    "GatewayServer",
    "HttpRequest",
    "LatencyHistogram",
    "ProtocolError",
    "canonical_json",
    "decode_mutations",
    "decode_query",
    "encode_response",
    "encode_result",
    "read_request",
    "request_key",
]

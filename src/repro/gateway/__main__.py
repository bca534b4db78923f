"""Run a demo gateway over a synthetic database: ``python -m repro.gateway``.

Useful for poking the HTTP surface with curl; production embedders should
construct :class:`~repro.gateway.GatewayServer` around their own
:class:`~repro.engine.QueryService` instead.
"""

from __future__ import annotations

import argparse
import time

from ..datasets import uniform_rectangle_database
from ..engine import ExecutorConfig, QueryService
from .host import GatewayServer
from .server import GatewayConfig


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--objects", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--timeout-ms",
        type=int,
        default=None,
        help="default per-request deadline when the client sends none",
    )
    args = parser.parse_args(argv)

    database = uniform_rectangle_database(
        num_objects=args.objects, max_extent=0.05, seed=args.seed
    )
    config = GatewayConfig(
        host=args.host, port=args.port, default_timeout_ms=args.timeout_ms
    )
    with QueryService(database, ExecutorConfig(workers=args.workers)) as service:
        with GatewayServer(service, config) as server:
            print(f"gateway listening on {server.url} (ctrl-c to stop)")
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                print("draining...")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

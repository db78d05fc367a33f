"""``python -m repro.fleet.serve`` — run the fleet service.

Starts the asyncio HTTP endpoint in the foreground and blocks until a
client POSTs ``/v1/shutdown`` (or SIGINT). On exit the service drains
the scheduler, then optionally writes the run manifest — the same
schema the experiment runner emits, with the fleet rollup under the
``"fleet"`` key — so a fleet run plugs straight into ``repro.obs.compare``
and ``repro.obs.dashboard``.

Example::

    python -m repro.fleet.serve --port 8787 --jobs 4 \\
        --checkpoint fleet.ckpt --resume --manifest fleet-manifest.json
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import sys
from typing import List, Optional

from .. import obs
from ..traces.generator import set_trace_cache_limit
from .server import FleetHTTPServer, FleetService

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet.serve",
        description="Long-lived fleet service simulating MEMCON hosts.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=8787,
                        help="bind port, 0 for ephemeral (default: %(default)s)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="simulation worker processes (default: %(default)s)")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="checkpoint journal for crash-resume")
    parser.add_argument("--resume", action="store_true",
                        help="skip units already in the checkpoint journal")
    parser.add_argument("--batch-max", type=int, default=32,
                        help="max hosts folded into one executor call "
                             "(default: %(default)s)")
    parser.add_argument("--unit-timeout", type=float, default=None,
                        metavar="S", help="per-unit timeout in seconds")
    parser.add_argument("--trace-cache", type=int, default=None,
                        metavar="N", help="synthetic-trace LRU cache size")
    parser.add_argument("--manifest", default=None, metavar="PATH",
                        help="write the run manifest here on shutdown")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log at INFO instead of WARNING")
    return parser


async def _serve(service: FleetService, host: str, port: int) -> None:
    server = FleetHTTPServer(service, host=host, port=port)
    await server.start()
    print(f"fleet service on http://{server.host}:{server.port}",
          file=sys.stderr, flush=True)
    await server.serve_until_shutdown()


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    registry = obs.MetricsRegistry(enabled=True)
    obs.set_registry(registry)
    if args.trace_cache is not None:
        set_trace_cache_limit(args.trace_cache)
    service = FleetService(
        jobs=args.jobs,
        checkpoint=args.checkpoint,
        resume=args.resume,
        batch_max=args.batch_max,
        unit_timeout_s=args.unit_timeout,
    )
    try:
        asyncio.run(_serve(service, args.host, args.port))
    except KeyboardInterrupt:
        print("fleet service interrupted; draining", file=sys.stderr)
    finally:
        service.close(wait=True)
        if args.manifest:
            manifest = obs.RunManifest.from_dict(service.manifest())
            manifest.write(args.manifest)
            print(f"manifest written to {args.manifest}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

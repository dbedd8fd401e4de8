"""Start the HTTP query service with the benchmark's layer wrappers.

The traced serve run uses this in place of ``python -m repro.cli serve``:
it builds the same store and service the CLI builds (same defaults),
wraps the layers' public functions (:func:`tracing.install`) and the
engine thread's executor, and only then calls ``start_server``.  The
wrappers count into the service's own telemetry registry, so the
benchmark reads them back from ``/metrics``.

Usage::

    python3 perfbench/serve_launcher.py --cache-dir DIR [--port 0]

Prints ``serving on http://HOST:PORT`` to stderr once ready, like the CLI.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


async def _serve(cache_dir: str, port: int) -> None:
    from repro.serve import ResultStore, StudyService, start_server
    from tracing import Tracer, install

    service = StudyService(store=ResultStore(cache_dir))
    tracer = Tracer(service.telemetry)
    install(tracer, serve=True)
    tracer.trace_executor(service._executor)
    server = await start_server(service, "127.0.0.1", port)
    host, bound = server.sockets[0].getsockname()[:2]
    print(f"serving on http://{host}:{bound}", file=sys.stderr, flush=True)
    try:
        async with server:
            await server.serve_forever()
    finally:
        await service.close()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args()
    try:
        asyncio.run(_serve(args.cache_dir, args.port))
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    main()

"""Subprocess entry points of the benchmark.

``setup``  -- what a fresh process pays before its first check: imports,
              the lazy scipy import, and opening a result store.  The
              caller times the whole process.
``serve``  -- a ``QueryService`` on a store, in its own process, after the
              same scipy import (so whether a check needs scipy does
              not change the server's memory).  Prints
              one JSON line ``{"serving": [host, port]}`` when it accepts
              connections and shuts down when its stdin closes.  With
              ``--trace-out`` it installs the span recorder first and
              writes the spans there on shutdown.

Usage: python launcher.py {setup,serve} --src SRC --store DIR [...]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path


def import_scipy() -> None:
    """The checker's lazy scipy import, paid up front."""
    try:
        from scipy.sparse.csgraph import connected_components  # noqa: F401
    except ImportError:  # the checker falls back to its numpy path
        pass


def setup(store: str) -> None:
    from repro.api import ResultStore, Session

    import_scipy()
    Session(store=ResultStore(store))


async def serve(args: argparse.Namespace) -> None:
    from repro.service import QueryService
    from repro.store.cache import ResultStore

    import_scipy()
    recorder = None
    if args.trace_out:
        from tracing import Recorder, install, write_spans

        recorder = Recorder()
        install(recorder)
    service = QueryService(ResultStore(args.store))
    host, port = await service.start()
    print(json.dumps({"serving": [host, port]}), flush=True)
    try:
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
    finally:
        await service.stop()
        if recorder is not None:
            write_spans(Path(args.trace_out), recorder.spans)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "serve"))
    parser.add_argument("--src", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    if args.mode == "setup":
        setup(args.store)
    else:
        asyncio.run(serve(args))


if __name__ == "__main__":
    main()

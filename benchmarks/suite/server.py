"""Serve the anonymizer on loopback for the benchmark, with library defaults.

Builds the benchmark map (a grid with a uniform population), an
``AnonymizerService`` on the requested backend and a ``FrontendServer`` with
its default settings, prints ``READY <port>`` and serves until SIGTERM or
SIGINT, or until its standard input reaches end of file (the launcher is
gone), then drains and exits.

With ``--trace`` the layer spans of :mod:`tracer` are installed before
anything is built. SIGUSR1 zeroes the span aggregates (start of the measured
window), SIGUSR2 freezes a copy (end of the window), and the frozen copy is
printed as one ``TRACE <json>`` line on exit.

Run by ``run.py`` with ``src`` on ``PYTHONPATH``; by hand::

    PYTHONPATH=src python benchmarks/suite/server.py --grid-side 24
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from typing import Optional

#: How the pool backend starts its two workers.
POOL_START_METHOD = "fork"
USERS_PER_SEGMENT = 2


def benchmark_map(grid_side: int):
    """The benchmark's road network and population: a square grid with
    ``USERS_PER_SEGMENT`` users on every segment."""
    from repro import PopulationSnapshot, grid_network

    network = grid_network(grid_side, grid_side)
    snapshot = PopulationSnapshot.from_counts(
        {segment: USERS_PER_SEGMENT for segment in network.segment_ids()}
    )
    return network, snapshot


async def _serve(service, tracer) -> dict:
    from repro.lbs import FrontendServer

    frozen: dict = {}
    server = FrontendServer(service)
    await server.start()
    try:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        stdin = sys.stdin.fileno()

        def on_stdin() -> None:
            if not os.read(stdin, 4096):
                loop.remove_reader(stdin)
                stop.set()

        loop.add_reader(stdin, on_stdin)
        if tracer is not None:
            loop.add_signal_handler(signal.SIGUSR1, tracer.reset)
            loop.add_signal_handler(
                signal.SIGUSR2, lambda: frozen.update(tracer.snapshot())
            )
        print(f"READY {server.port}", flush=True)
        await stop.wait()
    finally:
        await server.close()
    return frozen


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid-side", type=int, required=True)
    parser.add_argument("--backend", choices=("inline", "pool"), default="inline")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    from repro import AnonymizerService
    from repro.lbs import InlineBackend, ProcessPoolBackend

    network, snapshot = benchmark_map(args.grid_side)
    backend = (
        ProcessPoolBackend(2, start_method=POOL_START_METHOD)
        if args.backend == "pool"
        else InlineBackend()
    )
    service = AnonymizerService(network, backend=backend)
    try:
        service.update_snapshot(snapshot)
        frozen = asyncio.run(_serve(service, tracer))
    finally:
        service.close()
    if tracer is not None:
        print("TRACE " + json.dumps(frozen), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

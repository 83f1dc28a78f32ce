"""Reference work on a timer: how fast the host runs while the benchmark measures.

The shared VM the benchmark runs on changes speed from second to second and
from one run to the next, so the same server work costs a different amount of
CPU each time. This process runs beside the server and does the same small
piece of work every ``PERIOD_S`` seconds: it wakes from a timed wait, passes a
frame through a socket pair, decodes and re-encodes its JSON, and runs a fixed
Python loop and an HMAC, the kinds of work the server does per request.
``run.py`` reads this process's tick count and CPU time at the edges of each
phase. The CPU per tick over a phase measures the host's speed during that
phase, and nothing the server or the load generator does changes the work.

Each line read on standard input is answered with one line,
``<ticks> <cpu_ns>``. End of input stops the process.

Run by ``run.py``; by hand: ``python benchmarks/suite/hostref.py``, then press
Enter to read it.
"""

from __future__ import annotations

import hmac
import json
import os
import select
import socket
import sys
import time

PERIOD_S = 0.004
_DOCUMENT = {
    "request_id": 12345,
    "request": {
        "format": "reference",
        "user_id": 4242,
        "levels": [{"k": 20, "l": 3}, {"k": 40, "l": 4}],
        "keys": ["ab" * 32, "cd" * 32],
    },
}
_KEY = b"host-reference-key-0123456789abc"


def tick(left: socket.socket, right: socket.socket, payload: bytes) -> None:
    left.sendall(len(payload).to_bytes(4, "big") + payload)
    frame = right.recv(4096)
    encoded = json.dumps(json.loads(frame[4:]), separators=(",", ":")).encode()
    counts: dict = {}
    for value in range(300):
        key = value & 63
        counts[key] = counts.get(key, 0) + value * 7
    hmac.new(_KEY, encoded, "sha256").digest()


def main() -> int:
    left, right = socket.socketpair()
    with left, right:
        payload = json.dumps(_DOCUMENT).encode()
        stdin = sys.stdin.fileno()
        ticks = 0
        due = time.monotonic()
        while True:
            due += PERIOD_S
            wait = max(0.0, due - time.monotonic())
            readable, _, _ = select.select([stdin], [], [], wait)
            if readable:
                if not os.read(stdin, 4096):
                    return 0
                os.write(1, b"%d %d\n" % (ticks, time.thread_time_ns()))
                continue
            tick(left, right, payload)
            ticks += 1


if __name__ == "__main__":
    raise SystemExit(main())

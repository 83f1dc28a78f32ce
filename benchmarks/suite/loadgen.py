"""Load generation over loopback TCP, speaking the front-end's framing itself.

Each frame is a 4-byte big-endian payload length followed by UTF-8 JSON;
requests are ``{"request_id": <int>, "request": <document>}`` and replies
``{"request_id": <int>, "outcome": <document>}``. The generator builds and
parses these bytes directly on asyncio transports, so none of the
repository's client code is part of what is measured, and it does as little
as possible per reply: it takes the request id from the reply prefix (the
server writes it first; other replies are parsed) and keeps the bytes. Replies are checked against the oracle only after the timed
phases.

One :class:`LoadGenerator` runs on one event loop in one thread. Every
request gets an id equal to its position in the ledger lists (``entry``,
``due``, ``sent``, ``done``, ``reply``), so phases are contiguous id ranges.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from typing import Iterator, List, Optional, Sequence

_HEADER = 4
_PREFIX = b'{"request_id":'


class _Wire(asyncio.Protocol):
    """One connection: reassembles reply frames and hands them over."""

    def __init__(self, generator: "LoadGenerator") -> None:
        self._generator = generator
        self._buffer = bytearray()
        self.transport: Optional[asyncio.Transport] = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        now = time.monotonic()
        buffer = self._buffer
        buffer += data
        size = len(buffer)
        offset = 0
        on_reply = self._generator.on_reply
        while size - offset >= _HEADER:
            end = offset + _HEADER + int.from_bytes(buffer[offset : offset + _HEADER], "big")
            if end > size:
                break
            on_reply(self, bytes(buffer[offset + _HEADER : end]), now)
            offset = end
        del buffer[:offset]

    def connection_lost(self, exc) -> None:
        self._generator.on_lost()


def frame(request_id: int, document: bytes) -> bytes:
    body = b'{"request_id":%d,"request":%b}' % (request_id, document)
    return len(body).to_bytes(_HEADER, "big") + body


class LoadGenerator:
    """Open- and closed-loop senders over a few connections, plus the ledger
    of every request sent and reply received (times are ``time.monotonic``,
    which is also the event loop's clock)."""

    def __init__(self, documents: Sequence[bytes]) -> None:
        self.documents = documents
        self.entry: List[int] = []
        self.due: List[float] = []
        self.sent: List[float] = []
        self.done: List[Optional[float]] = []
        self.reply: List[Optional[bytes]] = []
        #: Reply frames that named no outstanding request.
        self.stray = 0
        self.outstanding = 0
        self.lost = False
        self._wires: List[_Wire] = []
        self._idle: Optional[asyncio.Future] = None
        self._refill: Optional[Iterator[int]] = None

    async def connect(self, port: int, count: int) -> None:
        loop = asyncio.get_running_loop()
        for _ in range(count):
            _, wire = await loop.create_connection(
                lambda: _Wire(self), "127.0.0.1", port
            )
            self._wires.append(wire)

    def close(self) -> None:
        for wire in self._wires:
            wire.transport.close()

    def send(self, wire: _Wire, entry: int, due: float) -> None:
        self.entry.append(entry)
        self.due.append(due)
        self.done.append(None)
        self.reply.append(None)
        self.outstanding += 1
        wire.transport.write(frame(len(self.entry) - 1, self.documents[entry]))
        self.sent.append(time.monotonic())

    def on_reply(self, wire: _Wire, payload: bytes, now: float) -> None:
        try:
            if payload.startswith(_PREFIX):
                request_id = int(payload[len(_PREFIX) : payload.find(b",", len(_PREFIX))])
            else:
                request_id = json.loads(payload)["request_id"]
            if not 0 <= request_id < len(self.done):
                raise ValueError("reply names no request sent")
            if self.done[request_id] is not None:
                raise ValueError("second reply to one request")
        except (ValueError, IndexError, KeyError, TypeError):
            self.stray += 1
            return
        self.done[request_id] = now
        self.reply[request_id] = payload
        self.outstanding -= 1
        if self._refill is not None:
            self.send(wire, next(self._refill), now)
        elif not self.outstanding and self._idle is not None and not self._idle.done():
            self._idle.set_result(None)

    def on_lost(self) -> None:
        self.lost = True
        if self._idle is not None and not self._idle.done():
            self._idle.set_result(None)

    async def open_loop(self, offsets: Sequence[float], entries: Sequence[int]) -> range:
        """Send ``entries[i]`` at ``offsets[i]`` seconds from now, whatever
        the server is doing; return the id range sent."""
        loop = asyncio.get_running_loop()
        first = len(self.entry)
        wires = self._wires
        start = loop.time()
        for index, offset in enumerate(offsets):
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            elif index % 32 == 0:
                await asyncio.sleep(0)  # let replies in while catching up
            self.send(wires[index % len(wires)], entries[index], due)
        return range(first, len(self.entry))

    def start_closed_loop(self, entries: Iterator[int], depth: int) -> int:
        """Put ``depth`` requests in flight per connection and send the next
        entry as each reply arrives, until :meth:`stop_closed_loop`; return
        the first id of the phase."""
        first = len(self.entry)
        now = time.monotonic()
        self._refill = entries
        for wire in self._wires:
            for _ in range(depth):
                self.send(wire, next(entries), now)
        return first

    def stop_closed_loop(self) -> None:
        self._refill = None

    async def settle(self, timeout: float) -> None:
        """Wait until every request sent has its reply (or ``timeout``)."""
        if not self.outstanding or self.lost:
            return
        self._idle = asyncio.get_running_loop().create_future()
        try:
            await asyncio.wait_for(self._idle, timeout)
        except asyncio.TimeoutError:
            pass
        finally:
            self._idle = None


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks = []
    while size:
        chunk = sock.recv(size)
        if not chunk:
            raise ConnectionError("server closed the connection")
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def request_once(port: int, document: bytes, timeout: float) -> bytes:
    """One blocking request/reply round trip on a fresh connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(frame(0, document))
        size = int.from_bytes(_recv_exact(sock, _HEADER), "big")
        return _recv_exact(sock, size)

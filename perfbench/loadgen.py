"""Open-loop HTTP load generator for the serve workload.

One asyncio process sends a fixed schedule of ``POST /query`` requests
over a small pool of keep-alive connections (never more than the host
has cores).  Requests are released at their due times whether or not
earlier ones have been answered -- independent users, not one caller --
so a stall shows up as queueing.  Each request is timed from when it was
*due*, which charges the wait a stall imposes on later requests, and the
generator records how late its own wake-ups ran.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


class Connection:
    """One keep-alive HTTP/1.1 connection (no pipelining)."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, host: str) -> None:
        self.reader = reader
        self.writer = writer
        self.host = host

    @staticmethod
    async def open(host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return Connection(reader, writer, host)

    async def request(self, method: str, path: str,
                      body: bytes = b"") -> Tuple[int, bytes]:
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
        self.writer.write(head + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


@dataclass
class Record:
    """One request's fate."""

    index: int
    kind: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    answer: Optional[Dict[str, object]] = None
    error: str = ""

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its answer."""
        return self.done - self.due

    @property
    def round_trip(self) -> float:
        """Seconds from sending to the answer (the HTTP hop plus server)."""
        return self.done - self.sent


async def _one(pool: "asyncio.Queue[Connection]", record: Record,
               body: bytes) -> None:
    connection = await pool.get()
    record.sent = time.monotonic()
    try:
        record.status, payload = await connection.request(
            "POST", "/query", body)
        record.done = time.monotonic()
        record.answer = json.loads(payload)
    except (ConnectionError, OSError, ValueError,
            asyncio.IncompleteReadError) as exc:
        record.done = time.monotonic()
        record.error = f"{type(exc).__name__}: {exc}"
    finally:
        pool.put_nowait(connection)


async def run_schedule(host: str, port: int,
                       schedule: Sequence[Tuple[float, str, bytes]],
                       connections: int) -> Tuple[List[Record], List[float]]:
    """Send ``(due_seconds, kind, body)`` requests on time.

    Returns the records, in schedule order, and the generator's lateness
    (seconds each release ran after its due time).
    """
    pool: "asyncio.Queue[Connection]" = asyncio.Queue()
    opened = [await Connection.open(host, port) for _ in range(connections)]
    for connection in opened:
        pool.put_nowait(connection)
    records: List[Record] = []
    lateness: List[float] = []
    tasks = []
    start = time.monotonic() + 0.05
    try:
        for index, (due, kind, body) in enumerate(schedule):
            at = start + due
            delay = at - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(max(0.0, time.monotonic() - at))
            record = Record(index=index, kind=kind, due=at)
            records.append(record)
            tasks.append(asyncio.ensure_future(_one(pool, record, body)))
        await asyncio.gather(*tasks)
    finally:
        for connection in opened:
            await connection.close()
    return records, lateness


async def get(host: str, port: int, path: str) -> Tuple[int, bytes]:
    connection = await Connection.open(host, port)
    try:
        return await connection.request("GET", path)
    finally:
        await connection.close()


async def post_sequential(host: str, port: int,
                          bodies: Sequence[bytes]) -> List[Tuple[int, bytes]]:
    """Send requests one after another on one connection."""
    connection = await Connection.open(host, port)
    try:
        return [await connection.request("POST", "/query", body)
                for body in bodies]
    finally:
        await connection.close()


def parse_prometheus(text: str) -> Dict[str, float]:
    """``name value`` samples of a Prometheus text exposition."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.partition(" ")
        samples[name] = float(value)
    return samples

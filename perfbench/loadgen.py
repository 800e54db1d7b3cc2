"""Single-threaded asyncio load generator over keep-alive HTTP/1.1.

The generator owns at most two persistent connections (the host has two
cores).  In the open loop, requests are due on a seeded Poisson
schedule that never waits for the server; a request that finds both
connections busy queues in the generator, and its latency is timed from
when it was due, so a stall is charged to every request it delays.
How late the generator itself woke up against the schedule is recorded
separately: it measures the generator, not the server.

Every request is accounted for: a non-200 answer, an unparsable body,
a dropped connection or a timeout is a failed request, and the run
that contains one fails.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from spans import Tracer

#: A response slower than this counts as a failure, not as a sample.
REQUEST_TIMEOUT_S = 10.0
#: The event loop's timed sleeps overshoot by about 2 ms (the epoll
#: selector rounds its timeout up to whole milliseconds twice), so the
#: dispatcher sleeps until this long before a request is due and yields
#: to the other tasks for the rest.
EARLY_WAKE_S = 0.0025


class HTTPConnection:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)

    async def request(self, path: str, body: bytes) -> Tuple[int, bytes]:
        """POST *body* to *path*; returns ``(status, body)``."""
        if self._writer is None:
            await self._connect()
        head = (
            f"POST {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self._writer.write(head + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        parts = status_line.split(b" ", 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/1."):
            raise ConnectionError(f"malformed status line {status_line[:80]!r}")
        length = None
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        if length is None:
            raise ConnectionError("response without Content-Length")
        return int(parts[1]), await self._reader.readexactly(length)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
            self._writer = None
            self._reader = None


@dataclass
class Outcome:
    """One request as the generator saw it."""

    index: int
    payload: int  # index into the payload list
    latency_s: float  # from due time to the last byte (open loop) or send
    late_s: float  # how late the generator dispatched it
    ok: bool
    response: Optional[dict] = None
    error: str = ""


@dataclass
class Phase:
    """The outcomes of one load phase, in completion order."""

    name: str
    seconds: float = 0.0
    outcomes: List[Outcome] = field(default_factory=list)

    @property
    def sent(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)


async def _exchange(
    connection: HTTPConnection, body: bytes
) -> Tuple[bool, Optional[dict], str]:
    """Send one predict; returns ``(ok, response, error)``."""
    try:
        status, raw = await asyncio.wait_for(
            connection.request("/predict", body), REQUEST_TIMEOUT_S
        )
    except (OSError, ConnectionError, ValueError, asyncio.TimeoutError,
            asyncio.IncompleteReadError) as exc:
        await connection.close()  # reconnect on the next request
        return False, None, f"{type(exc).__name__}: {exc}"
    try:
        response = json.loads(raw)
    except ValueError:
        return False, None, f"HTTP {status}: unparsable body {raw[:80]!r}"
    if status != 200:
        return False, response, f"HTTP {status}: {response}"
    if not isinstance(response, dict) or "probabilities" not in response:
        return False, None, f"HTTP 200 without probabilities: {raw[:80]!r}"
    return True, response, ""


def _trace(tracer: Tracer, trace: str, due: float, sent: float, done: float) -> None:
    """A request span from due time, with the HTTP exchange as its child."""
    if tracer.enabled:
        root = tracer.record("request", due, done, trace)
        tracer.record("http.predict", sent, done, trace, parent=root)


def poisson_offsets(rate: float, rng: random.Random):
    """Endless seeded Poisson arrival offsets (seconds) at *rate*/s."""
    offset = 0.0
    while True:
        offset += rng.expovariate(rate)
        yield offset


async def open_loop(
    connections: List[HTTPConnection],
    bodies: List[bytes],
    choose: Callable[[int], int],
    rate: float,
    seed: int,
    stop: Callable[[int, float], bool],
    name: str,
    keep: Callable[[int], bool],
    tracer: Tracer,
) -> Phase:
    """Send requests due on a Poisson schedule until ``stop(n, t)``.

    ``choose(i)`` names the payload of the *i*-th request; ``stop`` is
    asked before each dispatch with the count sent and the seconds
    since the phase began.  ``keep(i)`` marks requests whose parsed
    response is kept for the correctness check.
    """
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    phase = Phase(name)
    begin = loop.time()

    async def dispatcher() -> None:
        for index, offset in enumerate(poisson_offsets(rate, random.Random(seed))):
            if stop(index, offset):
                break
            due = begin + offset
            delay = due - loop.time()
            if delay > EARLY_WAKE_S:
                await asyncio.sleep(delay - EARLY_WAKE_S)
            while loop.time() < due:
                await asyncio.sleep(0)
            queue.put_nowait((index, due, loop.time() - due))
        for _ in connections:
            queue.put_nowait(None)

    async def worker(connection: HTTPConnection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due, late = item
            payload = choose(index)
            sent = loop.time()
            ok, response, error = await _exchange(connection, bodies[payload])
            done = loop.time()
            phase.outcomes.append(
                Outcome(index, payload, done - due, late, ok,
                        response if keep(index) or not ok else None, error)
            )
            _trace(tracer, f"{name}-{index}", due, sent, done)

    await asyncio.gather(dispatcher(), *(worker(c) for c in connections))
    phase.seconds = loop.time() - begin
    return phase


async def closed_loop(
    connections: List[HTTPConnection],
    bodies: List[bytes],
    choose: Callable[[int], int],
    seconds: float,
    name: str,
    tracer: Tracer,
) -> Phase:
    """Each connection sends back to back for *seconds*."""
    loop = asyncio.get_running_loop()
    phase = Phase(name)
    begin = loop.time()
    counter = iter(range(1 << 62))

    async def worker(connection: HTTPConnection) -> None:
        while loop.time() - begin < seconds:
            index = next(counter)
            payload = choose(index)
            sent = loop.time()
            ok, response, error = await _exchange(connection, bodies[payload])
            done = loop.time()
            phase.outcomes.append(
                Outcome(index, payload, done - sent, 0.0, ok,
                        None if ok else response, error)
            )
            _trace(tracer, f"{name}-{index}", sent, sent, done)

    await asyncio.gather(*(worker(c) for c in connections))
    phase.seconds = loop.time() - begin
    return phase

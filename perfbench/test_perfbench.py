"""Tests of the benchmark itself (``python -m pytest perfbench``).

The load generator must count every request that does not come back as
a scored 200 as failed, and a run holding one failed request must fail.
A fake asyncio HTTP server stands in for the real one, so these tests
take a second and need no model.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import hostspeed
import loadgen
import run as bench
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
GOOD = json.dumps(
    {"probabilities": [0.2, 0.3, 0.5], "label": 2, "model_version": 1, "fingerprint": "f"}
).encode()


async def _fake_server(statuses):
    """Answer the i-th POST with ``statuses[i % len(statuses)]``."""
    count = 0

    async def handle(reader, writer):
        nonlocal count
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = next(
                    int(line.split(b":")[1])
                    for line in head.split(b"\r\n")
                    if line.lower().startswith(b"content-length")
                )
                await reader.readexactly(length)
                status = statuses[count % len(statuses)]
                count += 1
                body = GOOD if status == 200 else b'{"error": "QueueFull"}'
                writer.write(
                    f"HTTP/1.1 {status} X\r\nContent-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def _drive(statuses, n=12):
    async def main():
        server = await _fake_server(statuses)
        port = server.sockets[0].getsockname()[1]
        connections = [loadgen.HTTPConnection("127.0.0.1", port) for _ in range(2)]
        try:
            return await loadgen.open_loop(
                connections, [b"{}"], lambda i: 0, rate=200.0, seed=1,
                stop=lambda sent, t: sent >= n, name="open",
                keep=lambda i: True, tracer=Tracer(False, "test"),
            )
        finally:
            for connection in connections:
                await connection.close()
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


def test_all_scored_requests_pass_the_check():
    phase = _drive([200])
    assert (phase.sent, phase.failed) == (12, 0)
    bench.check_requests([phase])


def test_a_failed_request_fails_the_run():
    phase = _drive([200, 429, 200, 500])
    assert (phase.sent, phase.failed) == (12, 6)
    assert {o.error.split(":")[0] for o in phase.outcomes if not o.ok} == {"HTTP 429", "HTTP 500"}
    with pytest.raises(bench.BenchmarkError, match="failed"):
        bench.check_requests([phase])


def test_an_unreachable_server_is_a_failed_request_not_a_crash():
    async def main():
        port = bench.free_port()  # nothing listens here
        return await loadgen.open_loop(
            [loadgen.HTTPConnection("127.0.0.1", port)], [b"{}"], lambda i: 0,
            rate=200.0, seed=1, stop=lambda sent, t: sent >= 3, name="open",
            keep=lambda i: False, tracer=Tracer(False, "test"),
        )

    phase = asyncio.run(main())
    assert (phase.sent, phase.failed) == (3, 3)
    with pytest.raises(bench.BenchmarkError):
        bench.check_requests([phase])


def test_the_server_cpu_clock_is_exact():
    spent = time.process_time()
    measured = bench.proc_cpu_s(os.getpid())
    assert spent <= measured < time.process_time() + 1e-3


def test_the_speed_sampler_keeps_the_window_and_stops():
    async def main():
        sampler = await bench.SpeedSampler.start(bench.server_cpu())
        begin = time.monotonic()
        await asyncio.sleep(0.7)
        return sampler, await sampler.stop(begin, time.monotonic())

    sampler, samples = asyncio.run(main())
    assert sampler.process.returncode == 0
    assert 1 <= len(samples) <= 0.7 / hostspeed.SAMPLE_EVERY_S
    assert all(0.0 < seconds < 1.0 for seconds in samples)


def test_without_sources_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

"""A fixed reference computation that measures how fast the host runs now.

The host this benchmark was tuned on (a 2-vCPU VM) changes speed by up
to a third within minutes: the same refresh cycle took 0.38 s in one
half-minute and 0.56 s a few minutes later, and every CPU-bound figure
moved with it.  Two sets of runs of the same code then disagree by more
than any useful bound.  Each of its CPUs changes speed on its own: this
probe, pinned to one CPU and to the other at the same time, took 38-64
ms on each, slow on one while fast on the other.

The probe is a few tens of milliseconds of the kinds of work a refresh
cycle does: Python dictionary counting over tokens (ingest, events),
dense multiplicative NMF updates (topics, nn) and a sparse truncated
SVD (LSA embeddings).  It calls no code of the system, so a change to
the system cannot move it.  The refresh process runs it right after
each piece of work the benchmark times, and that piece is scaled by
``REFERENCE_S`` over the probe's time: seconds of the reference host.
The speed changes within seconds, so the probe runs next to the work
it scales, not in a window of its own.  On the tuning host, in two
sets of ten runs per workload taken one after the other, the median
cycle as measured moved 7-15% between the sets and differed by 17-19%
between the serve and refresh workloads, which run the same 12 cycles;
scaled, it moved at most 1.1% and differed by 0.4-1.7%.

The server's CPU per request moves with the host too (the quartiles of
ten runs of the same code lay 12-22% of the median apart), so ``RequestProbe`` does the
same for the request path: a miniature HTTP exchange sampled on the
server's CPU all through the open loop, and ``req_cpu_ms`` is scaled
by ``REQUEST_REFERENCE_S`` over its median.  Run as a script, this
module is that sampler.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import queue
import select
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import svds

#: The probe's median on the tuning host (2-vCPU KVM guest, Python
#: 3.11, numpy 2.4, scipy 1.17, one BLAS thread).
REFERENCE_S = 0.040
#: Probes per reading; the median of three shrugs off one preemption.
RUNS = 3


class HostProbe:
    """The reference computation on fixed inputs, built once."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.tokens = " ".join(f"w{i % 211}" for i in range(72000))
        self.dense = rng.random((300, 200))
        self.w0 = rng.random((300, 8))
        self.h0 = rng.random((8, 200))
        self.sparse = scipy.sparse.random(
            2000, 800, density=0.01, random_state=0, format="csr"
        )
        self.v0 = np.full(800, 1.0 / 30.0)

    def _once(self) -> None:
        counts: dict = {}
        for token in self.tokens.split():
            counts[token] = counts.get(token, 0) + 1
        w, h = self.w0.copy(), self.h0.copy()
        for _ in range(60):
            h *= (w.T @ self.dense) / (w.T @ w @ h + 1e-9)
            w *= (self.dense @ h.T) / (w @ h @ h.T + 1e-9)
        svds(self.sparse, k=12, v0=self.v0)

    def seconds(self) -> float:
        """The median time of ``RUNS`` probes, one after the other."""
        times = []
        for _ in range(RUNS):
            started = time.perf_counter()
            self._once()
            times.append(time.perf_counter() - started)
        return sorted(times)[RUNS // 2]


def scaled(seconds: float, probe_s: float, reference_s: float = REFERENCE_S) -> float:
    """*seconds* measured next to a probe of *probe_s*, on the reference host."""
    return seconds * reference_s / probe_s


#: The request probe's median on the tuning host, in CPU seconds, as
#: sampled during an open loop (a sample follows a sleep, so it starts
#: on cold caches, as a request does).
REQUEST_REFERENCE_S = 0.0013
#: Seconds between two samples of the request probe: about 1% of the CPU.
SAMPLE_EVERY_S = 0.1


class _ProbeHandler(BaseHTTPRequestHandler):
    """Parses a JSON POST, hands it to the worker thread, sends the answer."""

    protocol_version = "HTTP/1.1"

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers["Content-Length"]))
        job = {"payload": json.loads(body), "done": threading.Event()}
        self.server.jobs.put(job)
        job["done"].wait()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(job["answer"])))
        self.end_headers()
        self.wfile.write(job["answer"])

    def log_message(self, *args) -> None:
        pass


class RequestProbe:
    """One keep-alive HTTP exchange of the request path's kinds of work.

    The server spends a request's CPU in the standard library's HTTP
    parsing, socket calls and thread hand-offs, in JSON, in dictionary
    lookups over tokens and in a small dense forward pass.  The probe is
    a miniature of that, built from the standard library and numpy
    only: a ``ThreadingHTTPServer`` whose handler hands the parsed body
    to a worker thread, which counts its tokens and runs a 32-row
    matrix product, and an ``http.client`` connection in the main
    thread.  It is timed in CPU time of its process, so the server
    running in between does not count.  It runs in a process of its own
    on the server's CPU while requests are served, one exchange every
    ``SAMPLE_EVERY_S``, because a probe before and after a 16 s phase
    misses the speed changes within it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.random((32, 300))
        self.w = rng.random((300, 64))
        self.body = json.dumps(
            {"tokens": [f"w{i % 97}" for i in range(120)], "followers": 10}
        ).encode("utf-8")
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _ProbeHandler)
        self.server.daemon_threads = True
        self.server.jobs = queue.Queue()
        threading.Thread(target=self.server.serve_forever, daemon=True).start()
        threading.Thread(target=self._work, daemon=True).start()
        self.connection = http.client.HTTPConnection(*self.server.server_address)

    def _work(self) -> None:
        while True:
            job = self.server.jobs.get()
            counts: dict = {}
            for token in job["payload"]["tokens"]:
                counts[token] = counts.get(token, 0) + 1
            y = np.maximum(self.x @ self.w, 0.0)
            job["answer"] = json.dumps({"p": y[0, :3].tolist(), "n": len(counts)}).encode()
            job["done"].set()

    def cpu_seconds(self) -> float:
        started = time.process_time()
        self.connection.request(
            "POST", "/predict", self.body, {"Content-Type": "application/json"}
        )
        self.connection.getresponse().read()
        return time.process_time() - started


def sample() -> None:
    """Print ``<monotonic time> <probe CPU s>`` lines until stdin closes."""
    probe = RequestProbe()
    for _ in range(5):  # warm up
        probe.cpu_seconds()
    print("ready", flush=True)
    while True:
        readable, _, _ = select.select([sys.stdin], [], [], SAMPLE_EVERY_S)
        if readable and not sys.stdin.readline():
            return
        seconds = probe.cpu_seconds()
        print(f"{time.monotonic():.6f} {seconds:.9f}", flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Sample the request probe on one CPU until stdin closes."
    )
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    sample()

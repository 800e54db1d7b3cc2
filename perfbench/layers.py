"""Per-layer metrics of a traced run, and the in-process probes behind some.

``LAYERS`` is the ledger: each row names a layer metric, its unit,
whether higher is better, and the end-to-end metric and workload it
should move.  A row's value is the median over its samples (cycles,
requests or probe calls); ``render`` prints median and quartiles, so
the spread of every row is on record next to its value.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List

import loadgen
from spans import Tracer, span_costs_s
from stats import percentile, summary

#: What the request-path rows should move.
_REQUEST = "req_p50_ms, req_p95_ms, req_slo_share, closed_rps on serve"

#: name -> (unit, better, what it should move)
LAYERS: Dict[str, tuple] = {
    "streaming.ingest_us_per_doc": ("us/doc", "lower", "refresh_s, docs_per_s on refresh"),
    "streaming.cycle_s": ("s", "lower", "refresh_s on refresh; refresh_s, req_p95_ms on live"),
    "streaming.fold_us_per_doc": ("us/doc", "lower", "refresh_s, refresh_cpu_s on refresh"),
    "topics.nmf_s": ("s", "lower", "refresh_s, refresh_cpu_s on refresh"),
    "events.news_s": ("s", "lower", "refresh_s, refresh_cpu_s on refresh"),
    "events.twitter_s": ("s", "lower", "refresh_s, refresh_cpu_s on refresh"),
    "embeddings.s": ("s", "lower", "refresh_s, refresh_cpu_s on refresh"),
    "core.trending_s": ("s", "lower", "refresh_s, refresh_cpu_s on refresh"),
    "core.correlation_s": ("s", "lower", "refresh_s, refresh_cpu_s on refresh"),
    "core.features_s": ("s", "lower", "refresh_s, refresh_cpu_s on refresh"),
    "datasets.build_s": ("s", "lower", "refresh_s, refresh_cpu_s on refresh"),
    "streaming.new_docs": ("count", "higher", "denominator of the per-doc rows"),
    "datasets.rows": ("count", "higher", "denominator of nn.fit_us_per_row_epoch"),
    "nn.fit_s": ("s", "lower", "refresh_s on refresh"),
    "nn.epochs": ("count", "lower", "refresh_s on refresh"),
    "nn.fit_us_per_row_epoch": ("us", "lower", "refresh_s on refresh"),
    "serving.export_ms": ("ms", "lower", "refresh_s on refresh"),
    "serving.artifact_bytes": ("bytes", "lower", "refresh_s on refresh"),
    "serving.swap_ms": (
        "ms", "lower", "refresh_s on refresh; req_p95_ms, req_cpu_ms on live"
    ),
    "serving.inproc_p50_ms": ("ms", "lower", _REQUEST),
    "http.transport_ms": ("ms", "lower", _REQUEST),
    "serving.encode_hit_us": ("us", "lower", "req_cpu_ms on serve"),
    "serving.encode_miss_us": ("us", "lower", "req_cpu_ms on live"),
    "nn.forward_us": ("us", "lower", "req_cpu_ms, req_p50_ms on serve"),
    "scheduler.batches": ("count", "lower", "req_p50_ms on serve (batch fill wait)"),
    "scheduler.mean_batch_size": ("rows", "higher", "req_p50_ms on serve (batch fill wait)"),
    "cache.hit_rate": ("fraction", "higher", "req_cpu_ms: high on serve, near 0 on live"),
    "admission.shed": ("count", "lower", "req_slo_share, req_p95_ms on serve and live"),
    "fleet.errors": ("count", "lower", "req_slo_share, req_p95_ms on serve and live"),
    "fleet.swaps": ("count", "higher", "req_slo_share, req_p95_ms on serve and live"),
    "router.replica_skew": ("ratio", "lower", "req_slo_share, req_p95_ms on serve and live"),
    "loadgen.late_p99_ms": ("ms", "lower", "none: health of the run, not of the system"),
}

#: Length of the in-process open loop that prices the HTTP transport.
INPROC_S = 5.0
#: Calls per encode/forward probe.
PROBE_CALLS = 200


class InProcessConnection:
    """The loadgen's connection interface over ``ServingClient``.

    Requests run on a thread pool (one thread per connection, as the
    HTTP server gives each connection a thread) and are JSON-encoded
    like the HTTP handler encodes them, so the in-process and HTTP
    figures differ by the transport alone.
    """

    def __init__(self, client, executor: ThreadPoolExecutor) -> None:
        self.client = client
        self.executor = executor

    async def request(self, path: str, body: bytes):
        from repro.serving import ServingError

        payload = json.loads(body)

        def call():
            try:
                response = self.client.predict(
                    payload["tokens"],
                    followers=payload["followers"],
                    created_at=payload["created_at"],
                )
            except ServingError as exc:
                return exc.status, json.dumps({"error": exc.kind}).encode()
            return 200, json.dumps(response.to_json()).encode()

        return await asyncio.get_running_loop().run_in_executor(self.executor, call)

    async def close(self) -> None:
        pass


async def inprocess_p50_ms(run) -> Dict[str, float]:
    """The workload's request mix through ``ServingClient(FleetService)``."""
    from repro.serving import FleetConfig, FleetService, ModelRegistry, ServingClient, ServingConfig

    registry = ModelRegistry()
    registry.load(run.versions[1])
    service = FleetService(registry, ServingConfig(), FleetConfig())
    executor = ThreadPoolExecutor(max_workers=2)
    try:
        connections = [InProcessConnection(ServingClient(service), executor) for _ in range(2)]
        phase = await loadgen.open_loop(
            connections, run.bodies, run.chooser(0), run.rate, run.arrivals_seed,
            stop=lambda n, t: t >= INPROC_S, name="inproc",
            keep=lambda i: False, tracer=Tracer(False, "inproc"),
        )
    finally:
        executor.shutdown(wait=True)
        service.close()
    if phase.failed:
        raise RuntimeError(f"{phase.failed} in-process requests failed")
    return summary([o.latency_s * 1e3 for o in phase.outcomes])


def probes(run) -> Dict[str, Dict[str, float]]:
    """Encode (cold and warm cache) and forward-pass costs, per call."""
    from repro.serving import (
        FeatureCache,
        ModelVersion,
        PredictRequest,
        ServingConfig,
        load_artifact,
    )
    from repro.serving.service import encode_request

    version = ModelVersion(1, load_artifact(run.versions[1]))
    requests = [
        PredictRequest.build(p["tokens"], followers=p["followers"], created_at=p["created_at"])
        for p in run.payloads[:PROBE_CALLS]
    ]
    cache = FeatureCache(len(requests))

    def timed_encode() -> List[float]:
        costs = []
        for request in requests:
            started = time.perf_counter()
            encode_request(cache, request, version)
            costs.append((time.perf_counter() - started) * 1e6)
        return costs

    miss = timed_encode()
    hit = timed_encode()
    row = encode_request(cache, requests[0], version)[None, :]
    pad_to = ServingConfig().max_batch_size
    forward = []
    for _ in range(PROBE_CALLS):
        started = time.perf_counter()
        version.predict(row, pad_to=pad_to)
        forward.append((time.perf_counter() - started) * 1e6)
    return {
        "serving.encode_miss_us": summary(miss),
        "serving.encode_hit_us": summary(hit),
        "nn.forward_us": summary(forward),
    }


def per_layer(run, late_p99_s: float, inproc: Dict[str, float]) -> Dict[str, dict]:
    """Every row of ``LAYERS`` for one traced run."""
    cycles = run.cycles
    spans = run.tracer.spans
    cycle_traces = {f"cycle-{c['index']}" for c in cycles}

    def span_s(name: str) -> List[float]:
        return [
            s["end"] - s["start"]
            for s in spans
            if s["name"] == name and s["trace"] in cycle_traces
        ]

    docs = [c["new_docs"] for c in cycles]
    ingest = span_s("streaming.ingest")
    rows = {
        "streaming.ingest_us_per_doc": [d / n * 1e6 for d, n in zip(ingest, docs)],
        "streaming.cycle_s": span_s("streaming.cycle"),
        "streaming.fold_us_per_doc": [c["stages"]["fold"] / c["new_docs"] * 1e6 for c in cycles],
        "streaming.new_docs": docs,
        "datasets.rows": [c["rows"] for c in cycles],
        "nn.fit_s": span_s("nn.fit"),
        "nn.epochs": [c["epochs"] for c in cycles],
        "nn.fit_us_per_row_epoch": [
            d / (c["train_rows"] * c["epochs"]) * 1e6 for d, c in zip(span_s("nn.fit"), cycles)
        ],
        "serving.export_ms": [d * 1e3 for d in span_s("serving.export")],
        "serving.artifact_bytes": [c["artifact_bytes"] for c in cycles],
        "serving.swap_ms": [d * 1e3 for d in span_s("serving.swap")],
    }
    stages = {
        "topics.nmf_s": "topic_modeling",
        "events.news_s": "news_event_detection",
        "events.twitter_s": "twitter_event_detection",
        "embeddings.s": "embeddings",
        "core.trending_s": "trending_news",
        "core.correlation_s": "correlation",
        "core.features_s": "feature_creation",
        "datasets.build_s": "dataset_building",
    }
    for name, stage in stages.items():
        rows[name] = [c["stages"][stage] for c in cycles]
    values = {name: summary(samples) for name, samples in rows.items()}

    http = [o.latency_s * 1e3 for o in run.phases[0].outcomes]
    values["serving.inproc_p50_ms"] = inproc
    transport = percentile(http, 50) - inproc["median"]
    values["http.transport_ms"] = {"median": transport, "q1": transport, "q3": transport, "n": 1}
    values.update(probes(run))

    metrics = run.metrics_snapshot
    schedulers = metrics["schedulers"]
    batches = sum(s["batches"] for s in schedulers)
    routed = metrics["router"]["routed_per_replica"]
    counters = {
        "scheduler.batches": batches,
        "scheduler.mean_batch_size": sum(s["batched_rows"] for s in schedulers) / max(batches, 1),
        "cache.hit_rate": metrics["cache_hit_rate"],
        "admission.shed": metrics["admission"]["shed_total"],
        "fleet.errors": metrics["errors"],
        "fleet.swaps": metrics["swaps"],
        "router.replica_skew": max(routed) / (sum(routed) / len(routed)) if sum(routed) else 1.0,
        "loadgen.late_p99_ms": late_p99_s * 1e3,
    }
    for name, value in counters.items():
        values[name] = {"median": float(value), "q1": float(value), "q3": float(value), "n": 1}
    for name, row in values.items():
        row["unit"] = LAYERS[name][0]
    return {name: values[name] for name in LAYERS}


def tracing_overhead(run, traced: Dict[str, float]) -> Dict[str, float]:
    """What recording spans adds to a cycle and to a request.

    The spans each cycle and each request recorded, times what one span
    costs; as shares of the traced ``refresh_s`` (as measured, not
    scaled to the reference host) and ``req_p50_ms``.
    """
    costs = span_costs_s()
    spans = run.tracer.spans
    phases = {phase.name for phase in run.phases}
    requests = sum(phase.sent for phase in run.phases)
    per_cycle = sum(1 for s in spans if s["trace"].startswith("cycle-")) / len(run.cycles)
    per_request = sum(1 for s in spans if s["trace"].split("-")[0] in phases) / requests
    cycle_s = per_cycle * costs["span"]
    request_s = per_request * costs["record"]
    return {
        "span_us": costs["span"] * 1e6,
        "record_us": costs["record"] * 1e6,
        "spans_per_cycle": per_cycle,
        "spans_per_request": per_request,
        "refresh_s_share": cycle_s / run.refresh_figures(scale=False)["refresh_s"],
        "req_p50_ms_share": request_s / (traced["req_p50_ms"] / 1e3),
    }


def render(values: Dict[str, dict]) -> str:
    """The per-layer table: median, quartiles, sample count, target."""
    lines = [
        f"{'layer metric':30s} {'unit':>8s} {'median':>12s} {'q1':>12s} "
        f"{'q3':>12s} {'n':>5s}  should move"
    ]
    for name, row in values.items():
        lines.append(
            f"{name:30s} {row['unit']:>8s} {row['median']:12.4f} {row['q1']:12.4f} "
            f"{row['q3']:12.4f} {row['n']:5d}  {LAYERS[name][2]}"
        )
    return "\n".join(lines)

"""In-memory span recorder for the benchmark's own code.

A span is one call into a layer of the system, timed from the
benchmark's side: ``name``, ``start``/``end`` (``time.perf_counter``,
which is CLOCK_MONOTONIC on Linux and so comparable across the
benchmark's processes), the ``trace`` id shared by every span of one
request or one refresh cycle, and the ``parent`` span that caused it.
Spans stay in a list until the run ends and are then written out as
JSON lines.  A disabled tracer records nothing and costs one branch.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Collects spans of one process; ``enabled=False`` makes it a no-op."""

    def __init__(self, enabled: bool, process: str) -> None:
        self.enabled = enabled
        self.process = process
        self.spans: List[Dict[str, object]] = []
        self._ids = itertools.count(1)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        trace: str,
        parent: Optional[int] = None,
    ) -> Optional[int]:
        """Store one finished span; returns its id (None when disabled)."""
        if not self.enabled:
            return None
        span_id = next(self._ids)
        self._append(span_id, name, start, end, trace, parent)
        return span_id

    def _append(self, span_id, name, start, end, trace, parent) -> None:
        self.spans.append(
            {
                "id": f"{self.process}:{span_id}",
                "name": name,
                "start": start,
                "end": end,
                "trace": trace,
                "parent": None if parent is None else f"{self.process}:{parent}",
            }
        )

    @contextmanager
    def span(
        self, name: str, trace: str, parent: Optional[int] = None
    ) -> Iterator[Optional[int]]:
        """Time the ``with`` body as one span; yields the span's id.

        The id is reserved up front so children recorded inside the
        body can name this span as their parent.
        """
        if not self.enabled:
            yield None
            return
        span_id = next(self._ids)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self._append(span_id, name, start, time.perf_counter(), trace, parent)

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


#: Calls timed per cost in ``span_costs_s``.
COST_CALLS = 20000


def span_costs_s() -> Dict[str, float]:
    """Seconds one enabled ``Tracer.span`` and one ``Tracer.record`` cost.

    Timed on a throwaway tracer; multiplied by the spans a cycle or a
    request records, this is the tracing overhead of a traced run,
    which the difference between a traced and an untraced run is too
    noisy to resolve.
    """
    tracer = Tracer(True, "probe")
    started = time.perf_counter()
    for _ in range(COST_CALLS):
        with tracer.span("probe", "probe"):
            pass
    span_s = (time.perf_counter() - started) / COST_CALLS
    started = time.perf_counter()
    for _ in range(COST_CALLS):
        tracer.record("probe", 0.0, 0.0, "probe")
    return {"span": span_s, "record": (time.perf_counter() - started) / COST_CALLS}


"""Order statistics shared by the benchmark processes (stdlib only)."""

from __future__ import annotations

from typing import Dict, List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) of *values*, linearly interpolated.

    Matches ``numpy.percentile``'s default method, so figures agree with
    the numbers the serving layer reports about itself.
    """
    if not values:
        raise ValueError("percentile of an empty series")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    """The 50th percentile of *values*."""
    return percentile(values, 50.0)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of one per-layer series."""
    return {
        "median": median(values),
        "q1": percentile(values, 25.0),
        "q3": percentile(values, 75.0),
        "n": len(values),
    }


def split_evenly(items: List, parts: int) -> List[List]:
    """*items* cut into *parts* contiguous runs of (almost) equal length."""
    n = len(items)
    return [items[i * n // parts : (i + 1) * n // parts] for i in range(parts)]

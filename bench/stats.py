"""Percentiles as the benchmark reports them."""

from __future__ import annotations

import math

PERCENTILES = (50, 75, 90, 95, 98, 99, 99.5, 99.8, 99.9, 99.95, 99.98, 99.99)


def _rank(pct: float, n: int) -> int:
    # rounding first keeps 99.9 % of 1000 at rank 999, not 1000
    return max(1, math.ceil(round(pct * n / 100, 9)))


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """The smallest sample with at least pct percent of samples at or below it."""
    return sorted_values[_rank(pct, len(sorted_values)) - 1]


def tail_percentile(n: int) -> float:
    """Highest reported percentile with at least ten of n samples beyond it."""
    best = None
    for pct in PERCENTILES:
        if n - _rank(pct, n) >= 10:
            best = pct
    if best is None:
        raise ValueError(f"{n} samples leave fewer than ten beyond the median")
    return best


def summary(latencies: list[float], completed: int, wall_s: float) -> dict:
    """Throughput inputs and latency percentiles of a set of requests, each
    request's latency being its CPU time (see ``speed.py``)."""
    ordered = sorted(latencies)
    tail_pct = tail_percentile(len(ordered))
    return {
        "requests": len(ordered),
        "completed": completed,
        "wall_s": wall_s,
        "cpu_s": sum(ordered),
        "p50_s": nearest_rank(ordered, 50),
        "tail_pct": tail_pct,
        "tail_s": nearest_rank(ordered, tail_pct),
    }

"""Latency summaries and run-to-run spread."""

from __future__ import annotations

import statistics
from typing import Sequence

# Tail percentiles in tenths of a percent, highest first.
TAIL_LADDER = (999, 990, 900, 500)
TAIL_MIN_BEYOND = 10


def _rank(p: int, n: int) -> int:
    """Nearest-rank position (1-based) of percentile p/10 among n samples."""
    return -(-p * n // 1000)


def tail_percentile(n: int) -> int | None:
    """Highest ladder percentile (in tenths) that leaves at least ten of n
    samples beyond it; None when even the median leaves fewer than ten."""
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= TAIL_MIN_BEYOND:
            return p
    return None


def tail(samples: Sequence[float]) -> tuple[float, float] | None:
    """(percentile, value) at ``tail_percentile`` of the samples."""
    xs = sorted(samples)
    p = tail_percentile(len(xs))
    return None if p is None else (p / 10, xs[_rank(p, len(xs)) - 1])


def tail_band(percentile: float) -> tuple[int, int]:
    """Smallest and largest sample count for which ``tail`` reports this
    percentile."""
    p = round(percentile * 10)
    counts = [n for n in range(1, 20 * 1000) if tail_percentile(n) == p]
    return counts[0], counts[-1]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median

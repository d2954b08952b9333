"""Summary statistics for benchmark timings."""

from __future__ import annotations

import math
import statistics

# Percentiles a tail latency may be reported at, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def samples_beyond(n: int, p: float) -> int:
    """How many of n sorted samples rank above the p-th percentile."""
    return n - math.ceil(n * p / 100.0)


def supported_percentile(n: int, candidates=TAIL_PERCENTILES):
    """The highest candidate percentile with at least MIN_BEYOND samples
    beyond it, or None when even the lowest has fewer."""
    best = None
    for p in candidates:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Linear-interpolated p-th percentile (the inclusive method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values):
    """(percentile, value) at the highest supported tail percentile.

    With too few samples for any candidate the tail falls back to the median,
    the only figure such a run supports.
    """
    p = supported_percentile(len(values))
    if p is None:
        return 50.0, statistics.median(values)
    return p, percentile(values, p)

"""Medians, quartiles and tail percentiles shared by run.py and compare.py."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf


def tail(samples: Sequence[float]) -> Tuple[float, int]:
    """The highest whole percentile with at least ten samples above it.

    Returns ``(value, percentile)`` by the nearest-rank rule; with fewer
    than twenty samples no percentile from 50 up qualifies, and the maximum
    (percentile 100) is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for percentile in range(99, 49, -1):
        rank = math.ceil(percentile * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], percentile
    return ordered[-1], 100


def describe(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric over repetitions."""
    q1, median, q3 = quartiles(list(values))
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}

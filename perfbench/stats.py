"""Order statistics shared by the workloads and the steadiness mode."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """The *fraction* quantile of *samples*, linearly interpolated.

    Uses the (n - 1) * fraction rank, as numpy's default does, so the
    0.5 quantile is the ordinary median and 0.9 of 100 samples lies
    between the 90th and 91st smallest.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction!r} outside [0, 1]")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * fraction
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 0.5)


def quartiles(samples: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) exactly as ``statistics.quantiles(samples, n=4)``
    gives them, which is how run-to-run spread is judged."""
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def relative_iqr(samples: Sequence[float]) -> float:
    """(Q3 - Q1) / median: the spread a metric's bound is judged by."""
    q1, mid, q3 = quartiles(samples)
    return (q3 - q1) / mid if mid else math.inf

"""Summary statistics used by every experiment report.

Implemented without numpy so the core library stays dependency-free; the
benchmark harness may still use numpy for plotting-oriented work.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    if not values:
        return 0.0
    return sum(values) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile of ``values``, ``q`` in [0, 100].

    The one method every reported number uses (EXPERIMENTS.md tables,
    golden digests, workload FCT/queue-depth percentiles): **linear** —
    rank ``(n - 1) * q / 100`` with linear interpolation between the two
    bracketing order statistics.  It matches numpy's default ("linear" /
    Hyndman-Fan type 7), so results are comparable with common plotting
    pipelines, and it is exact on ties (a run of equal values brackets
    to itself).  Changing it is a reportable behaviour change, not a
    refactor; ``test_metrics.py::TestPercentileLock`` pins it.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    fraction = rank - low
    # The `lo + (hi - lo) * f` form is exact when lo == hi; the naive
    # `lo*(1-f) + hi*f` can round just below lo there.
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as (value, fraction <= value) points, sorted."""
    ordered = sorted(values)
    n = len(ordered)
    return [(value, (i + 1) / n) for i, value in enumerate(ordered)]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """The five-number summary the paper's bar charts annotate.

    Fig. 8(c)/(d) and Fig. 10/11 mark the min, 10th/50th/90th percentile
    and max of each distribution; this returns exactly those.
    """
    if not values:
        return {"min": 0.0, "p10": 0.0, "p50": 0.0, "p90": 0.0, "max": 0.0, "mean": 0.0}
    return {
        "min": min(values),
        "p10": percentile(values, 10),
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
        "max": max(values),
        "mean": mean(values),
    }


__all__ = ["mean", "percentile", "cdf_points", "summarize"]

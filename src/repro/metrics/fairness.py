"""Fairness metrics.

The paper's Fig. 6 claim is that XMP flows share a bottleneck equally
*irrespective of subflow count*; Jain's index over per-flow (not
per-subflow) rates is the standard scalar for that.
"""

from __future__ import annotations

from typing import Sequence


def jain_index(rates: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 is perfectly fair; ``1/n`` is maximally unfair.  An empty input or
    all-zero rates return 0.0.
    """
    if not rates:
        return 0.0
    if any(rate < 0 for rate in rates):
        raise ValueError("rates must be non-negative")
    total = sum(rates)
    squares = sum(rate * rate for rate in rates)
    if squares == 0.0:
        return 0.0
    return total * total / (len(rates) * squares)


__all__ = ["jain_index"]

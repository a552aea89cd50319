"""The one time-series shape: a shared ``times`` column plus named columns.

Everything the paper plots is a sampled series — rate-versus-time
(Figs. 1/4/6/7), queue occupancy, per-flow control state, and the
window/rate/queue trajectories of the fluid model — so every sampler and
``integrate_model`` write this one type and figure results carry it
through the run cache.

Columns are ``array('d')`` (8 bytes a sample, no boxed floats), keyed by
strings for samplers and by integer index for fluid state, in
registration order.  Every mean sums with :func:`left_sum`, an explicit
left fold from ``0.0``: CPython 3.11's ``sum``, but 3.12's is compensated
and goodputs are digested to nine significant digits, so the order is
spelled out — also for the fluid backend's streamed tail means, which
must add in :meth:`TimeSeries.tail_mean`'s order without the column.

Standard library only; imports nothing from :mod:`repro`.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, Iterable, Sequence


def left_sum(values: Iterable[float]) -> float:
    """``((0.0 + v0) + v1) + ...``: the one summation order of every mean."""
    total = 0.0
    for value in values:
        total += value
    return total


def tail_start(count: int, fraction: float) -> int:
    """Index of the first of the trailing ``fraction`` of ``count`` samples.

    The steady-state window: ``0 < fraction <= 1`` (an empty or
    out-of-range tail is a caller bug, so it raises), and the window
    always holds at least the final sample.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"tail fraction must be in (0, 1], got {fraction}")
    if count < 1:
        raise ValueError("a tail mean needs a non-empty series")
    return min(int(count * (1.0 - fraction)), count - 1)


class TimeSeries:
    """Samples of several named quantities taken at shared instants."""

    __slots__ = ("times", "columns")

    def __init__(self, keys: Iterable[Hashable] = ()) -> None:
        self.times = array("d")
        self.columns: Dict[Hashable, array] = {key: array("d") for key in keys}

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, key: Hashable) -> array:
        return self.columns[key]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return self.times == other.times and list(self.columns.items()) == list(
            other.columns.items()
        )

    def __repr__(self) -> str:
        return f"TimeSeries({len(self.columns)} columns x {len(self.times)} samples)"

    def add_column(self, key: Hashable) -> None:
        """Start recording ``key``; instants already sampled read 0."""
        if key in self.columns:
            raise ValueError(f"duplicate series column {key!r}")
        self.columns[key] = array("d", [0.0]) * len(self.times)

    def append(self, time: float, row: Sequence[float]) -> None:
        """Record one instant: ``row`` holds one value per column, in order."""
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} values for {len(self.columns)} columns"
            )
        self.times.append(time)
        for column, value in zip(self.columns.values(), row):
            column.append(value)

    def mean(
        self, key: Hashable, start: float = 0.0, end: float = float("inf")
    ) -> float:
        """Mean of one column over the samples with ``start <= t <= end``.

        0.0 when the window holds no sample.
        """
        values = [
            value
            for time, value in zip(self.times, self.columns[key])
            if start <= time <= end
        ]
        return left_sum(values) / len(values) if values else 0.0

    def tail_mean(self, key: Hashable, fraction: float = 0.3) -> float:
        """Mean of the trailing ``fraction`` of one non-empty column
        (the window :func:`tail_start` picks)."""
        values = self.columns[key]
        start = tail_start(len(values), fraction)
        return left_sum(values[start:]) / (len(values) - start)


__all__ = ["TimeSeries", "left_sum", "tail_start"]

"""Flow records and goodput aggregation (Tables 1-2, Fig. 8).

The paper defines Goodput as "the average data transfer rate of a large
flow over its whole running time"; a :class:`FlowRecord` captures one
finished (or still-running) transfer and :func:`goodput_table` averages
them per scheme the way the tables do.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.metrics.stats import mean


class FlowRecord:
    """One transfer's outcome."""

    __slots__ = (
        "flow_id",
        "scheme",
        "src",
        "dst",
        "category",
        "size_bytes",
        "start_time",
        "complete_time",
        "delivered_bytes",
    )

    def __init__(
        self,
        flow_id: int,
        scheme: str,
        src: str,
        dst: str,
        category: str,
        size_bytes: int,
        start_time: float,
        complete_time: Optional[float],
        delivered_bytes: int,
    ) -> None:
        self.flow_id = flow_id
        self.scheme = scheme
        self.src = src
        self.dst = dst
        self.category = category
        self.size_bytes = size_bytes
        self.start_time = start_time
        self.complete_time = complete_time
        self.delivered_bytes = delivered_bytes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowRecord):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    # Value equality (a record pickled through the run cache must compare
    # equal to the original) but identity hashing, as before.
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return (
            f"FlowRecord(flow_id={self.flow_id}, scheme={self.scheme!r}, "
            f"{self.src}->{self.dst}, {self.category}, "
            f"size={self.size_bytes}, delivered={self.delivered_bytes}, "
            f"t=[{self.start_time}, {self.complete_time}])"
        )

    def goodput_bps(self, now: Optional[float] = None) -> float:
        """Delivered bits over running time; unfinished flows need ``now``."""
        end = self.complete_time
        if end is None:
            if now is None:
                raise ValueError("unfinished flow needs `now` for goodput")
            end = now
        duration = end - self.start_time
        if duration <= 0:
            return 0.0
        return self.delivered_bytes * 8.0 / duration


def goodput_table(
    records_by_scheme: Dict[str, Sequence[FlowRecord]],
    now: Optional[float] = None,
) -> Dict[str, float]:
    """Average goodput per scheme in bps — one column of Table 1."""
    return {
        scheme: mean([record.goodput_bps(now) for record in records])
        for scheme, records in records_by_scheme.items()
    }


__all__ = ["FlowRecord", "goodput_table"]

"""Egress-port queues and AQM.

Three queue disciplines are provided:

* :class:`DropTailQueue` — plain FIFO with a packet-count cap.
* :class:`ThresholdECNQueue` — the paper's marking rule (BOS step 1 /
  DCTCP-style): *mark the arriving ECT packet with CE when the
  instantaneous queue length exceeds K packets*.  Non-ECT packets pass
  unmarked and are only dropped on overflow.
* :class:`REDQueue` — classic RED with an EWMA average queue, kept for the
  ablation that motivates the paper's §2.1 argument against averaged-queue
  marking in DCNs.

Marking convention: the arriving packet is marked when the number of
packets already waiting is ``>= K`` (equivalently, the queue length
*including* the arrival is ``> K``, the paper's phrasing).  The packet
currently being serialized on the link is *not* counted, matching the
NS-3 model the authors used (device holds the in-flight packet, queue
holds the waiting ones).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    import random


class QueueStats:
    """Counters every queue keeps; cheap enough to be always on."""

    __slots__ = (
        "enqueued",
        "dequeued",
        "dropped",
        "marked",
        "max_occupancy",
    )

    def __init__(self) -> None:
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.marked = 0
        self.max_occupancy = 0

    def snapshot(self) -> dict:
        """Return the counters as a plain dict (for reports and tests)."""
        return {
            "enqueued": self.enqueued,
            "dequeued": self.dequeued,
            "dropped": self.dropped,
            "marked": self.marked,
            "max_occupancy": self.max_occupancy,
        }


class DropTailQueue:
    """FIFO queue with a hard capacity in packets."""

    __slots__ = ("capacity", "_buffer", "stats")

    def __init__(self, capacity: int = 100) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buffer: Deque[Packet] = deque()
        self.stats = QueueStats()

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def occupancy(self) -> int:
        """Number of packets currently waiting."""
        return len(self._buffer)

    def accept(self, packet: Packet) -> bool:
        """Enqueue ``packet``; return ``False`` when it was dropped."""
        buffer = self._buffer
        occupancy = len(buffer)
        stats = self.stats
        if occupancy >= self.capacity:
            stats.dropped += 1
            return False
        self._mark(packet, occupancy)
        buffer.append(packet)
        stats.enqueued += 1
        occupancy += 1
        if occupancy > stats.max_occupancy:
            stats.max_occupancy = occupancy
        return True

    def pop(self) -> Optional[Packet]:
        """Dequeue the head packet, or ``None`` when empty."""
        buffer = self._buffer
        if not buffer:
            return None
        self.stats.dequeued += 1
        return buffer.popleft()

    def _mark(self, packet: Packet, occupancy_before: int) -> None:
        """Hook for subclasses; DropTail never marks."""


class ThresholdECNQueue(DropTailQueue):
    """The paper's packet-marking rule: CE when instantaneous queue > K."""

    __slots__ = ("threshold",)

    def __init__(self, capacity: int = 100, threshold: int = 10) -> None:
        super().__init__(capacity)
        if threshold < 0:
            raise ValueError(f"marking threshold must be >= 0, got {threshold}")
        self.threshold = threshold

    def _mark(self, packet: Packet, occupancy_before: int) -> None:
        if packet.ect and occupancy_before >= self.threshold:
            packet.ce = True
            self.stats.marked += 1


class REDQueue(DropTailQueue):
    """Classic RED (Floyd & Jacobson) with ECN marking.

    Kept for the ablation contrasting averaged-queue marking against the
    paper's instantaneous rule.  With ``weight=1.0`` and
    ``min_threshold == max_threshold == K`` this collapses to (almost) the
    instantaneous rule — the two configuration "tricks" the paper applies
    to DummyNet/hardware RED in §3.
    """

    __slots__ = (
        "min_threshold",
        "max_threshold",
        "max_probability",
        "weight",
        "avg",
        "_rng",
        "_count_since_mark",
    )

    def __init__(
        self,
        capacity: int = 100,
        min_threshold: int = 5,
        max_threshold: int = 15,
        max_probability: float = 0.1,
        weight: float = 0.002,
        *,
        rng: random.Random,
    ) -> None:
        super().__init__(capacity)
        if not 0 < weight <= 1.0:
            raise ValueError(f"EWMA weight must be in (0, 1], got {weight}")
        if min_threshold > max_threshold:
            raise ValueError("min_threshold must be <= max_threshold")
        self.min_threshold = min_threshold
        self.max_threshold = max_threshold
        self.max_probability = max_probability
        self.weight = weight
        self.avg = 0.0
        self._rng = rng
        self._count_since_mark = 0

    def _mark_probability(self) -> float:
        """RED's piecewise-linear marking probability for the current avg."""
        if self.avg < self.min_threshold:
            return 0.0
        if self.avg >= self.max_threshold:
            return 1.0
        span = self.max_threshold - self.min_threshold
        if span == 0:
            return 1.0
        return self.max_probability * (self.avg - self.min_threshold) / span

    def _mark(self, packet: Packet, occupancy_before: int) -> None:
        self.avg += self.weight * (occupancy_before - self.avg)
        if not packet.ect:
            return
        probability = self._mark_probability()
        if probability <= 0.0:
            self._count_since_mark = 0
            return
        if probability >= 1.0:
            packet.ce = True
            self.stats.marked += 1
            self._count_since_mark = 0
            return
        # Uniformized marking (gentle RED): probability grows with the run
        # of unmarked packets, avoiding geometric clustering of marks.
        self._count_since_mark += 1
        effective = probability / max(
            1e-9, 1.0 - self._count_since_mark * probability
        )
        if self._rng.random() < effective:
            packet.ce = True
            self.stats.marked += 1
            self._count_since_mark = 0


__all__ = ["QueueStats", "DropTailQueue", "ThresholdECNQueue", "REDQueue"]

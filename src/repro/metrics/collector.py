"""Periodic samplers driven by simulator events.

Each sampler schedules itself every ``interval`` seconds; the series
samplers append to one :class:`~repro.metrics.series.TimeSeries`, which
is the value results carry and exports write.  Samplers stop sampling
automatically when the simulator's event heap drains (their own events
keep the heap alive only until ``until`` if given).

Sampling ticks run at :data:`SAMPLE_PRIORITY`, *after* every transport
and network event scheduled for the same instant: a sampler must observe
the settled end-of-instant state, never the middle of an ACK burst that
happens to share its timestamp (samples would otherwise race transport
events on the insertion-order tiebreak and could read mid-update
counters).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.metrics.series import TimeSeries
from repro.net.link import Link
from repro.net.packet import MSS_BYTES
from repro.sim.engine import Simulator
from repro.sim.priorities import SAMPLE
from repro.transport.tcp import TcpSender

#: Event priority for sampling ticks — the ``SAMPLE`` tier of
#: :mod:`repro.sim.priorities` (kept under its historical name here for
#: the many call sites that import it from the collector).
SAMPLE_PRIORITY = SAMPLE


class PeriodicSampler:
    """Base: call :meth:`sample` every ``interval`` until ``until``."""

    def __init__(
        self, sim: Simulator, interval: float, until: Optional[float] = None
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.interval = interval
        self.until = until
        self._stopped = False

    def start(self, delay: float = 0.0) -> None:
        """Begin sampling ``delay`` seconds from now."""
        self.sim.post(delay, self._tick, priority=SAMPLE_PRIORITY)

    def stop(self) -> None:
        """Stop after the current tick.

        The already-scheduled tick still fires and takes its sample (so a
        window closed by ``stop()`` keeps its final data point); it just
        doesn't reschedule.
        """
        self._stopped = True

    def _tick(self) -> None:
        if self.until is not None and self.sim.now > self.until:
            return
        self.sample()
        if self._stopped:
            return
        self.sim.post(self.interval, self._tick, priority=SAMPLE_PRIORITY)

    def sample(self) -> None:
        raise NotImplementedError


class SeriesSampler(PeriodicSampler):
    """Fill one :class:`TimeSeries` from registered zero-argument readers.

    The concrete sampler: each tick appends ``sim.now`` and one value
    per watched key to :attr:`series`.  What a subclass adds is *which*
    readers it registers.
    """

    def __init__(
        self, sim: Simulator, interval: float, until: Optional[float] = None
    ) -> None:
        super().__init__(sim, interval, until)
        self.series = TimeSeries()
        self._readers: List[Callable[[], float]] = []

    def watch(self, key: str, read: Callable[[], float]) -> None:
        """Record ``read()`` under ``key`` from the next tick on.

        Ticks already taken read 0 for the new column.
        """
        self.series.add_column(key)
        self._readers.append(read)

    def sample(self) -> None:
        self.series.append(self.sim.now, [read() for read in self._readers])


class RateSampler(SeriesSampler):
    """Per-sender delivery rate over each interval, bits/second.

    This is how the paper's rate-versus-time plots (Figs. 1, 4, 6, 7) are
    produced: the rate in an interval is the growth of cumulatively
    acknowledged payload divided by the interval.
    """

    def __init__(
        self,
        sim: Simulator,
        senders: Dict[str, TcpSender],
        interval: float,
        until: Optional[float] = None,
    ) -> None:
        super().__init__(sim, interval, until)
        for name, sender in senders.items():
            self.add_sender(name, sender)

    def add_sender(self, name: str, sender: TcpSender) -> None:
        """Track one more sender; earlier intervals are padded with 0."""
        last = sender.delivered_segments

        def rate() -> float:
            nonlocal last
            delivered = sender.delivered_segments
            delta, last = delivered - last, delivered
            return delta * MSS_BYTES * 8.0 / self.interval

        self.watch(name, rate)


class QueueMonitor(SeriesSampler):
    """Occupancy of a set of link queues over time (buffer-occupancy plots)."""

    def __init__(
        self,
        sim: Simulator,
        links: Sequence[Link],
        interval: float,
        until: Optional[float] = None,
    ) -> None:
        super().__init__(sim, interval, until)
        for link in links:
            self.watch(link.name, lambda link=link: link.occupancy)


class RttSampler(PeriodicSampler):
    """Collect smoothed-RTT samples from live senders, tagged by group.

    Fig. 10 reports RTT distributions per flow category; the experiment
    registers each large-flow subflow under its category and this sampler
    harvests ``srtt`` periodically while the sender runs.
    """

    def __init__(
        self, sim: Simulator, interval: float, until: Optional[float] = None
    ) -> None:
        super().__init__(sim, interval, until)
        self._senders: List[Tuple[str, TcpSender]] = []
        self.samples: Dict[str, List[float]] = {}

    def watch(self, group: str, sender: TcpSender) -> None:
        """Start harvesting this sender's srtt under ``group``."""
        self._senders.append((group, sender))
        self.samples.setdefault(group, [])

    def sample(self) -> None:
        for group, sender in self._senders:
            if sender.running and not sender.completed:
                srtt = sender.srtt
                if srtt is not None:
                    self.samples[group].append(srtt)


__all__ = [
    "SAMPLE_PRIORITY",
    "PeriodicSampler",
    "SeriesSampler",
    "RateSampler",
    "QueueMonitor",
    "RttSampler",
]

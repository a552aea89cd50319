"""Open-loop execution of a flow schedule, plus elephant/mice mixes.

:class:`OpenLoopPattern` replays a schedule stream
(:func:`repro.workloads.schedule.iter_schedule`) against a
:class:`~repro.traffic.factory.TransferFactory`: each arrival is posted
at its exact arrival time, regardless of how congested the fabric is —
the defining property of an open-loop load generator (the closed-loop
patterns in :mod:`repro.traffic` only issue a new flow when the previous
one completes, which caps the load they can offer at whatever the fabric
sustains).  The stream is read one arrival ahead: exactly one arrival is
pending in the simulator, and firing it posts the next, so a run holds
one arrival record instead of the whole schedule.

Per-flow FCTs come out of the factory: each completed flow's
:class:`~repro.metrics.goodput.FlowRecord` in ``factory.records`` carries
start and completion times, and the pattern counts what it scheduled
and launched (flows still in flight at the horizon are reported
separately, from the factory's unfinished records, never silently
dropped).

:class:`ElephantBackground` adds the classic background mix: a few
long-lived bulk flows (sized to outlive the run) that keep queues
non-empty while the open-loop mice arrive on top — the regime where
short-flow FCT tails actually differentiate congestion controllers.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence

from repro.sim.priorities import MODEL
from repro.sim.units import Bytes
from repro.traffic.factory import TransferFactory
from repro.workloads.schedule import FlowArrival


class OpenLoopPattern:
    """Launch every arrival of a time-ordered stream at its appointed time."""

    def __init__(
        self, factory: TransferFactory, schedule: Iterable[FlowArrival]
    ) -> None:
        self.factory = factory
        self._arrivals = iter(schedule)
        #: Arrivals taken from the stream (each posted) / fired so far.
        self.scheduled = 0
        self.launched = 0
        #: Bytes the posted arrivals offer.
        self.offered_bytes = 0

    def start(self) -> None:
        """Post the first arrival; each one posts the next as it fires."""
        self._post_next()

    def _post_next(self) -> None:
        arrival = next(self._arrivals, None)
        if arrival is None:
            return
        # Absolute time, stored verbatim: the flow starts at exactly
        # arrival.time, which now + (arrival.time - now) need not be.
        # An arrival in the past is a SimulationError.
        self.factory.network.sim.post_at(
            arrival.time, self._launch, arrival, priority=MODEL
        )
        self.scheduled += 1
        self.offered_bytes += arrival.size_bytes

    def _launch(self, arrival: FlowArrival) -> None:
        self.launched += 1
        self._post_next()
        self.factory.launch(arrival.src, arrival.dst, arrival.size_bytes)


class ElephantBackground:
    """Long-lived bulk flows pinned for the whole run.

    ``count`` src/dst pairs are drawn from ``hosts`` (distinct sources,
    never self-paired, inter-rack where the topology knows racks) and
    each transfers ``size_bytes`` — callers size this to exceed what a
    1.0-load flow could deliver over the horizon, so every elephant is
    still running when the simulation ends and shows up in the
    factory's unfinished records.
    """

    def __init__(
        self,
        factory: TransferFactory,
        hosts: Sequence[str],
        count: int,
        size_bytes: Bytes,
        rng: random.Random,
    ) -> None:
        if count < 0:
            raise ValueError(f"elephant count must be >= 0, got {count}")
        if count > len(hosts) // 2:
            raise ValueError(
                f"{count} elephants need {2 * count} hosts, got {len(hosts)}"
            )
        self.factory = factory
        self.hosts = list(hosts)
        self.count = count
        self.size_bytes = int(size_bytes)
        self.rng = rng
        self.pairs: List[tuple] = []

    def start(self) -> None:
        """Pick disjoint pairs and launch every elephant at time zero."""
        if self.count == 0:
            return
        chosen = self.rng.sample(self.hosts, 2 * self.count)
        for i in range(self.count):
            src, dst = chosen[2 * i], chosen[2 * i + 1]
            self.pairs.append((src, dst))
            self.factory.launch(src, dst, self.size_bytes)


__all__ = ["OpenLoopPattern", "ElephantBackground"]

"""Open-loop execution of a flow schedule, plus elephant/mice mixes.

:class:`OpenLoopPattern` replays a precomputed schedule
(:func:`repro.workloads.schedule.build_schedule`) against a
:class:`~repro.traffic.factory.TransferFactory`: every arrival is
scheduled as a simulator event at its exact arrival time, regardless of
how congested the fabric is — the defining property of an open-loop
load generator (the closed-loop patterns in :mod:`repro.traffic` only
issue a new flow when the previous one completes, which caps the load
they can offer at whatever the fabric sustains).

Per-flow FCTs come out of the factory: each completed flow's
:class:`~repro.metrics.goodput.FlowRecord` in ``factory.records`` carries
start and completion times, and the pattern counts what it launched
(flows still in flight at the horizon are reported separately, from the
factory's unfinished records, never silently dropped).

:class:`ElephantBackground` adds the classic background mix: a few
long-lived bulk flows (sized to outlive the run) that keep queues
non-empty while the open-loop mice arrive on top — the regime where
short-flow FCT tails actually differentiate congestion controllers.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.sim.units import Bytes
from repro.traffic.factory import TransferFactory
from repro.workloads.schedule import FlowArrival


class OpenLoopPattern:
    """Launch every scheduled arrival at its appointed time."""

    def __init__(
        self, factory: TransferFactory, schedule: Sequence[FlowArrival]
    ) -> None:
        self.factory = factory
        self.schedule = list(schedule)
        self.launched = 0

    def start(self) -> None:
        """Register one simulator event per arrival (time-relative)."""
        sim = self.factory.network.sim
        now = sim.now
        for arrival in self.schedule:
            delay = arrival.time - now
            if delay < 0:
                raise ValueError(
                    f"arrival at {arrival.time} is in the past (now={now})"
                )
            sim.schedule(delay, self._launch, arrival)

    def _launch(self, arrival: FlowArrival) -> None:
        self.launched += 1
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
        rng: Optional[random.Random] = None,
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
        self.rng = rng if rng is not None else random.Random(0)
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

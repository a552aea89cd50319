"""Pure, deterministic flow-schedule generation.

A *schedule* is the complete list of flow arrivals for one run — each a
:class:`FlowArrival` of (time, src, dst, size) — generated up front from
seeded streams and nothing else.  Splitting generation from execution
buys three things:

* **determinism is trivial to prove**: the schedule is a pure function
  of ``(hosts, sampler, process, rng)``, so the sampler property tests
  can assert byte-identical schedules without running a simulation, and
  ``--jobs 1`` vs ``--jobs 4`` campaigns reuse the proof (each cell
  regenerates the same schedule from its spec);
* **open-loop semantics by construction**: arrival times can not
  depend on completions because completions do not exist yet;
* the planned fluid backend (ROADMAP item 1) can consume the same
  schedules without touching the packet layer.

Source hosts are drawn uniformly; destinations uniformly among the
other hosts (no self-flows) — the uniform traffic matrix every
websearch/datamining FCT study uses.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Sequence

from repro.sim.units import Seconds
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.cdf import SizeSampler


class FlowArrival(NamedTuple):
    """One scheduled flow: when it starts, between whom, how many bytes."""

    time: float
    src: str
    dst: str
    size_bytes: int


#: Backstop against runaway schedules (load >> 1 with a long horizon).
MAX_SCHEDULED_FLOWS = 1_000_000


def build_schedule(
    hosts: Sequence[str],
    sampler: SizeSampler,
    process: ArrivalProcess,
    rng: random.Random,
    duration: Seconds,
) -> List[FlowArrival]:
    """Generate every arrival in ``[0, duration)``.

    Draw order per arrival is fixed (gap, src, dst, size) so schedules
    stay byte-identical across refactors that do not change the draw
    count — the golden workload cells pin exactly this.
    """
    if len(hosts) < 2:
        raise ValueError(f"need at least 2 hosts, got {len(hosts)}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    ordered = list(hosts)
    schedule: List[FlowArrival] = []
    now = 0.0
    while len(schedule) < MAX_SCHEDULED_FLOWS:
        now += process.next_gap(rng)
        if now >= duration:
            break
        src_index = rng.randrange(len(ordered))
        dst_index = rng.randrange(len(ordered) - 1)
        if dst_index >= src_index:
            dst_index += 1
        size = sampler.sample(rng)
        schedule.append(
            FlowArrival(now, ordered[src_index], ordered[dst_index], size)
        )
    return schedule


def offered_bytes(schedule: Sequence[FlowArrival]) -> int:
    """Total bytes the schedule offers (for load sanity checks)."""
    return sum(arrival.size_bytes for arrival in schedule)


__all__ = ["FlowArrival", "MAX_SCHEDULED_FLOWS", "build_schedule", "offered_bytes"]

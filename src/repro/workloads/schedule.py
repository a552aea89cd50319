"""Pure, deterministic flow-schedule generation.

A *schedule* is the sequence of flow arrivals for one run — each a
:class:`FlowArrival` of (time, src, dst, size) — drawn from a seeded
stream and nothing else.  :func:`iter_schedule` yields it one arrival at
a time (an open-loop run holds one pending arrival, not the whole list);
:func:`build_schedule` is the same sequence as a list.  Keeping
generation apart from execution buys two things:

* **determinism is trivial to prove**: the schedule is a pure function
  of ``(hosts, sampler, process, rng)``, so the sampler property tests
  can assert byte-identical schedules without running a simulation, and
  ``--jobs 1`` vs ``--jobs 4`` campaigns reuse the proof (each cell
  regenerates the same schedule from its spec);
* **open-loop semantics by construction**: the arrival stream draws on
  its own ``rng`` only, so arrival times can not depend on completions
  however the draws interleave with the run.

Source hosts are drawn uniformly; destinations uniformly among the
other hosts (no self-flows) — the uniform traffic matrix every
websearch/datamining FCT study uses.
"""

from __future__ import annotations

import random
from typing import Iterator, List, NamedTuple, Sequence

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


def iter_schedule(
    hosts: Sequence[str],
    sampler: SizeSampler,
    process: ArrivalProcess,
    rng: random.Random,
    duration: Seconds,
) -> Iterator[FlowArrival]:
    """Yield every arrival in ``[0, duration)``, in time order.

    Draw order per arrival is fixed (gap, src, dst, size) so schedules
    stay byte-identical across refactors that do not change the draw
    count — the golden workload cells pin exactly this.  The arguments
    are checked when the first arrival is asked for.
    """
    if len(hosts) < 2:
        raise ValueError(f"need at least 2 hosts, got {len(hosts)}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    ordered = list(hosts)
    now = 0.0
    for _ in range(MAX_SCHEDULED_FLOWS):
        now += process.next_gap(rng)
        if now >= duration:
            return
        src_index = rng.randrange(len(ordered))
        dst_index = rng.randrange(len(ordered) - 1)
        if dst_index >= src_index:
            dst_index += 1
        size = sampler.sample(rng)
        yield FlowArrival(now, ordered[src_index], ordered[dst_index], size)


def build_schedule(
    hosts: Sequence[str],
    sampler: SizeSampler,
    process: ArrivalProcess,
    rng: random.Random,
    duration: Seconds,
) -> List[FlowArrival]:
    """Every arrival of :func:`iter_schedule`, as a list."""
    return list(iter_schedule(hosts, sampler, process, rng, duration))


__all__ = ["FlowArrival", "MAX_SCHEDULED_FLOWS", "build_schedule", "iter_schedule"]

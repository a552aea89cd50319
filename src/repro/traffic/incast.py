"""The Incast pattern (paper §5.2.1): request/response fan-in jobs.

A *Job*: pick 9 random hosts — one client, eight servers.  The client
simultaneously sends a 2 KB request to each server; on receiving its
request, a server immediately answers with a 64 KB response.  The job
ends when the client has all eight responses; a new job starts right
away.  Eight jobs run concurrently; all small flows use plain TCP.
Background load is a :class:`~repro.traffic.random_pattern.RandomPattern`
of large flows (wired up by the experiment driver, not here).

Job completion time (JCT) is the paper's latency metric (Fig. 9,
Table 3); the fan-in of eight simultaneous responses into one access link
is what triggers the incast losses and 200 ms RTO "collapses" the paper's
CDF jumps come from.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.traffic.factory import TransferFactory
from repro.workloads.partition_aggregate import (
    PartitionAggregateJob,
    PartitionAggregatePattern,
)

#: Paper values — kept exact, they are what the latency results depend on
#: (the 2 KB request and 64 KB response are the partition-aggregate
#: defaults).
SERVERS_PER_JOB = 8
CONCURRENT_JOBS = 8

#: One request/response round between a client and its servers.
IncastJob = PartitionAggregateJob


class IncastPattern(PartitionAggregatePattern):
    """Partition-aggregate rounds at the paper's constants: one factory
    carries both directions and the fan-in is ``servers_per_job``."""

    def __init__(
        self,
        factory: TransferFactory,
        hosts: Sequence[str],
        servers_per_job: int = SERVERS_PER_JOB,
        concurrent_jobs: int = CONCURRENT_JOBS,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(
            factory,
            factory,
            hosts,
            fan_in=servers_per_job,
            concurrent_jobs=concurrent_jobs,
            rng=rng,
        )


__all__ = [
    "IncastPattern",
    "IncastJob",
    "SERVERS_PER_JOB",
    "CONCURRENT_JOBS",
]

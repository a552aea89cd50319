"""The Incast pattern's constants (paper §5.2.1): request/response fan-in jobs.

The pattern is a
:class:`~repro.workloads.partition_aggregate.PartitionAggregatePattern`
with one factory for both directions, ``fan_in=SERVERS_PER_JOB`` and
``concurrent_jobs=CONCURRENT_JOBS``.  A *Job*: pick 9 random hosts — one
client, eight servers.  The client simultaneously sends a 2 KB request to each server; on receiving its
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

#: Paper values — kept exact, they are what the latency results depend on
#: (the 2 KB request and 64 KB response are the partition-aggregate
#: defaults).
SERVERS_PER_JOB = 8
CONCURRENT_JOBS = 8

__all__ = ["SERVERS_PER_JOB", "CONCURRENT_JOBS"]

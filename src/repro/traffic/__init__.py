"""Workload generation: the paper's §5.2.1 traffic patterns.

* :class:`~repro.traffic.factory.TransferFactory` — turns (src, dst, size)
  into a running transfer with the configured scheme/subflow count and
  path policy, recording a :class:`~repro.metrics.goodput.FlowRecord` on
  completion.
* :class:`~repro.traffic.permutation.PermutationPattern` — host-to-host
  permutations, restarted when a round finishes.
* :class:`~repro.traffic.random_pattern.RandomPattern` — random pairs with
  bounded in-degree and Pareto sizes, back-to-back per source.
* :mod:`~repro.traffic.incast` — the constants of the request/response
  fan-in jobs over TCP small flows (a
  :class:`~repro.workloads.partition_aggregate.PartitionAggregatePattern`),
  run with Random-pattern background large flows.
"""

from repro.traffic.factory import TransferFactory
from repro.traffic.permutation import PermutationPattern
from repro.traffic.random_pattern import RandomPattern

__all__ = [
    "TransferFactory",
    "PermutationPattern",
    "RandomPattern",
]

"""Production traffic layer: empirical workloads, open-loop load, incast sweeps.

This package turns the repo's paper-shaped traffic (permutation, fixed
flow sets, one incast table) into the standard DCN evaluation surface:

* :mod:`repro.workloads.cdf` — seeded inverse-CDF flow-size samplers;
  the websearch (DCTCP) and datamining (VL2) empirical CDFs ship as
  data, alongside uniform/lognormal/fixed synthetics;
* :mod:`repro.workloads.arrivals` — Poisson and lognormal open-loop
  arrival processes calibrated to a target load against the topology's
  bisection-derived capacity;
* :mod:`repro.workloads.schedule` — pure, deterministic schedule
  generation, as a stream or as a list (the piece the property tests
  and the ledger's traced pass share);
* :mod:`repro.workloads.openloop` — schedule replay over the existing
  transport seams, one pending arrival at a time, plus elephant/mice
  background mixes;
* :mod:`repro.workloads.partition_aggregate` — parametric incast
  fan-in jobs for goodput-collapse sweeps.

Experiment drivers live in :mod:`repro.experiments.workload_matrix`;
FCT/queue-depth reducers in :mod:`repro.metrics.fct`.
"""

from repro.workloads.arrivals import (
    ARRIVAL_NAMES,
    ArrivalProcess,
    LognormalArrivals,
    PoissonArrivals,
    make_arrivals,
    offered_flow_rate,
    workload_capacity_bps,
)
from repro.workloads.cdf import (
    DATAMINING_POINTS,
    WEBSEARCH_POINTS,
    WORKLOAD_NAMES,
    FixedSizes,
    LognormalSizes,
    SizeCDF,
    SizeSampler,
    UniformSizes,
    make_sampler,
)
from repro.workloads.openloop import ElephantBackground, OpenLoopPattern
from repro.workloads.partition_aggregate import (
    PartitionAggregateJob,
    PartitionAggregatePattern,
)
from repro.workloads.schedule import (
    FlowArrival,
    build_schedule,
    iter_schedule,
)

__all__ = [
    "ARRIVAL_NAMES",
    "ArrivalProcess",
    "LognormalArrivals",
    "PoissonArrivals",
    "make_arrivals",
    "offered_flow_rate",
    "workload_capacity_bps",
    "DATAMINING_POINTS",
    "WEBSEARCH_POINTS",
    "WORKLOAD_NAMES",
    "FixedSizes",
    "LognormalSizes",
    "SizeCDF",
    "SizeSampler",
    "UniformSizes",
    "make_sampler",
    "ElephantBackground",
    "OpenLoopPattern",
    "PartitionAggregateJob",
    "PartitionAggregatePattern",
    "FlowArrival",
    "build_schedule",
    "iter_schedule",
]

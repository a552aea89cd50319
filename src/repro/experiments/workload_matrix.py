"""The workload evaluation matrix: empirical loads and incast fan-in sweeps.

Two new experiment kinds extend the paper-shaped evaluation
(:mod:`repro.experiments.fattree_eval`) to production-style traffic:

* ``workload`` — one (scheme, workload, load) cell: an open-loop
  Poisson/lognormal schedule of websearch/datamining/synthetic-sized
  flows over the fat tree, optionally on top of long-lived elephants.
  The result carries per-flow FCT records and sampled queue depths.
* ``incast_sweep`` — one (scheme, fan-in) cell: partition-aggregate
  rounds whose responses run the scheme under test, measuring JCTs and
  the goodput-collapse ratio.

:func:`matrix_cells` spans schemes x loads (the standard 0.1-0.9 sweep)
and :func:`sweep_cells` schemes x fan-ins; :func:`matrix_view` /
:func:`sweep_view` fold the campaign back into the printed tables.  They
are the ``workload`` / ``incast`` rows of
:mod:`repro.experiments.catalog`, so both inherit the runner's
guarantees — content-addressed caching, deterministic jobs=N merge,
telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.fattree_eval import build_cell, scheme_factory
from repro.experiments.reporting import format_table
from repro.metrics.collector import QueueMonitor
from repro.metrics.fct import (
    DEFAULT_BIN_EDGES,
    DEFAULT_BIN_LABELS,
    check_fct_invariants,
    duration_summary,
    fct_by_size_bin,
    fct_summary,
    goodput_collapse_ratio,
    queue_depth_p99,
)
from repro.metrics.goodput import FlowRecord
from repro.mptcp.coupling import scheme_label
from repro.runner import CampaignResult
from repro.topology.fattree import fattree_hosts
from repro.traffic.factory import TransferFactory
from repro.workloads.arrivals import make_arrivals, offered_flow_rate, workload_capacity_bps
from repro.workloads.cdf import make_sampler
from repro.workloads.openloop import ElephantBackground, OpenLoopPattern
from repro.workloads.partition_aggregate import (
    DEFAULT_REQUEST_BYTES,
    DEFAULT_RESPONSE_BYTES,
    PartitionAggregatePattern,
    check_rounds,
)
from repro.workloads.schedule import iter_schedule

#: The matrix's default scheme column: XMP vs the single-path baseline
#: vs one MPTCP coupling (add ("lia", 4), ("olia", 2), ... per run).
MATRIX_SCHEMES: Tuple[Tuple[str, int], ...] = (
    ("xmp", 2),
    ("dctcp", 1),
    ("lia", 2),
)

#: The standard utilization sweep.
MATRIX_LOADS: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

#: Default fan-in sweep (k=4 gives 16 hosts, so 15 is the ceiling).
SWEEP_FAN_INS: Tuple[int, ...] = (2, 4, 8, 12)


def _run_monitored(net, scenario) -> QueueMonitor:
    """Run the cell to its horizon with every queue's depth sampled."""
    monitor = QueueMonitor(
        net.sim,
        net.links,
        scenario.queue_sample_interval,
        until=scenario.duration,
    )
    monitor.start(scenario.queue_sample_interval)
    net.sim.run(until=scenario.duration)
    return monitor


class _QueueDepths:
    """What both cell results share: queue samples and run totals."""

    #: Sampled queue occupancy per topology layer.
    queue_samples: Dict[str, List[int]]

    def queue_p99(self, layer: Optional[str] = None) -> float:
        """99p sampled queue depth, over one layer or the whole fabric."""
        if layer is not None:
            return queue_depth_p99(self.queue_samples.get(layer, []))
        merged: List[int] = []
        for samples in self.queue_samples.values():
            merged.extend(samples)
        return queue_depth_p99(merged)

    def _collect(self, net, monitor: QueueMonitor) -> None:
        """Fill the per-layer queue samples and the network's totals."""
        layer_samples: Dict[str, List[int]] = {}
        for link in net.links:
            # Occupancy is whole packets: pooled as ints, which pickle
            # in a quarter of the bytes of the series' doubles.
            layer_samples.setdefault(link.layer, []).extend(
                map(int, monitor.series[link.name])
            )
        self.queue_samples = layer_samples
        self.total_marked = net.total_marked()
        self.total_dropped = net.total_dropped()
        self.events = net.sim.events_processed


# ----------------------------------------------------------------------
# Workload cells
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadScenario:
    """One (scheme, workload, load) cell of the evaluation matrix."""

    scheme: str = "xmp"
    subflows: int = 2
    workload: str = "websearch"
    arrival: str = "poisson"
    load: float = 0.4
    #: Burstiness of the lognormal arrival process (ignored for poisson).
    arrival_sigma: float = 1.0
    duration: float = 0.1
    k: int = 4
    seed: int = 1
    beta: float = 4.0
    marking_threshold: int = 10
    queue_capacity: int = 100
    rto_min: float = 0.200
    #: Multiplier on every sampled flow size (scaled-testbed knob).
    size_scale: float = 1.0
    #: Long-lived background bulk flows under the open-loop mice.
    background_elephants: int = 0
    queue_sample_interval: float = 0.001

    def __post_init__(self) -> None:
        # What would otherwise fail inside the cell, checked before any
        # topology is built.
        fattree_hosts(self.k)
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.load <= 0:
            raise ValueError(f"load must be positive, got {self.load}")
        if self.size_scale <= 0:
            raise ValueError(f"size_scale must be positive, got {self.size_scale}")

    def label(self) -> str:
        base = scheme_label(self.scheme, self.subflows)
        return f"{base}/{self.workload}@{self.load:g}"


@dataclass
class WorkloadResult(_QueueDepths):
    """Everything one workload cell hands to the FCT/queue reducers."""

    scenario: WorkloadScenario
    #: Completed open-loop flows (FCT = complete - start).
    records: List[FlowRecord] = field(default_factory=list)
    #: Open-loop flows still in flight at the horizon.
    unfinished: List[FlowRecord] = field(default_factory=list)
    #: Elephant background records (all unfinished by construction).
    elephants: List[FlowRecord] = field(default_factory=list)
    #: Arrivals generated / actually launched before the horizon.
    scheduled_flows: int = 0
    launched_flows: int = 0
    offered_bytes: int = 0
    #: The capacity (bits/s) the load fraction was calibrated against.
    capacity_bps: float = 0.0
    queue_samples: Dict[str, List[int]] = field(default_factory=dict)
    duration: float = 0.0
    total_marked: int = 0
    total_dropped: int = 0
    events: int = 0

    def fct_table(self) -> Dict[str, Dict[str, float]]:
        """count/mean/p50/p99 FCT per size bin (finished flows)."""
        return fct_by_size_bin(self.records, DEFAULT_BIN_EDGES, DEFAULT_BIN_LABELS)

    def fct_overall(self) -> Dict[str, float]:
        return fct_summary(self.records)

    def achieved_load(self) -> float:
        """Delivered bytes over capacity x duration — the served load."""
        if self.capacity_bps <= 0 or self.duration <= 0:
            return 0.0
        delivered = sum(r.delivered_bytes for r in self.records)
        delivered += sum(r.delivered_bytes for r in self.unfinished)
        return delivered * 8.0 / (self.capacity_bps * self.duration)


def _simulate_workload(scenario: WorkloadScenario) -> WorkloadResult:
    streams, net, hosts = build_cell(scenario)

    sampler = make_sampler(scenario.workload, scenario.size_scale)
    capacity = workload_capacity_bps(net)
    rate = offered_flow_rate(scenario.load, capacity, sampler.mean_bytes())
    process = make_arrivals(scenario.arrival, rate, sigma=scenario.arrival_sigma)
    schedule = iter_schedule(
        hosts,
        sampler,
        process,
        streams.stream("workload-arrivals"),
        scenario.duration,
    )

    factory = scheme_factory(
        net, scenario, streams.stream("paths-main"), scenario.label()
    )
    pattern = OpenLoopPattern(factory, schedule)
    pattern.start()

    elephant_factory: Optional[TransferFactory] = None
    if scenario.background_elephants > 0:
        elephant_factory = scheme_factory(
            net, scenario, streams.stream("paths-elephants"),
            f"{scenario.label()}/bg",
        )
        # Sized to outlive the run: double what a host access link could
        # serialize over the whole horizon.
        elephant_size = int(2 * net.link_rate_bps * scenario.duration / 8) + 1
        ElephantBackground(
            elephant_factory,
            hosts,
            scenario.background_elephants,
            elephant_size,
            rng=streams.stream("elephants"),
        ).start()

    monitor = _run_monitored(net, scenario)

    result = WorkloadResult(
        scenario=scenario,
        records=list(factory.records),
        unfinished=factory.unfinished_records(scenario.duration),
        elephants=(
            elephant_factory.all_records(scenario.duration)
            if elephant_factory is not None
            else []
        ),
        scheduled_flows=pattern.scheduled,
        launched_flows=pattern.launched,
        offered_bytes=pattern.offered_bytes,
        capacity_bps=capacity,
        duration=scenario.duration,
    )
    check_fct_invariants(result.records, scenario.duration, context=scenario.label())
    result._collect(net, monitor)
    return result


# ----------------------------------------------------------------------
# Incast fan-in cells
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class IncastSweepScenario:
    """One (scheme, fan-in) cell of the partition-aggregate sweep."""

    scheme: str = "xmp"
    subflows: int = 2
    fan_in: int = 8
    request_bytes: int = DEFAULT_REQUEST_BYTES
    response_bytes: int = DEFAULT_RESPONSE_BYTES
    concurrent_jobs: int = 4
    duration: float = 0.1
    k: int = 4
    seed: int = 1
    beta: float = 4.0
    marking_threshold: int = 10
    queue_capacity: int = 100
    rto_min: float = 0.200
    queue_sample_interval: float = 0.001

    def __post_init__(self) -> None:
        # What would otherwise fail inside the cell, checked before any
        # topology is built.
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        check_rounds(fattree_hosts(self.k), self.fan_in, self.concurrent_jobs)

    def label(self) -> str:
        return f"{scheme_label(self.scheme, self.subflows)}/fanin{self.fan_in}"


@dataclass
class IncastSweepResult(_QueueDepths):
    """JCTs, response FCT records and queue depths of one fan-in cell."""

    scenario: IncastSweepScenario
    jcts: List[float] = field(default_factory=list)
    jobs_started: int = 0
    unfinished_ages: List[float] = field(default_factory=list)
    #: Completed response-flow records (the scheme-under-test traffic).
    responses: List[FlowRecord] = field(default_factory=list)
    queue_samples: Dict[str, List[int]] = field(default_factory=dict)
    access_rate_bps: float = 0.0
    duration: float = 0.0
    total_marked: int = 0
    total_dropped: int = 0
    events: int = 0

    def collapse_ratio(self) -> float:
        """Mean achieved/ideal fan-in goodput (1.0 = no collapse)."""
        return goodput_collapse_ratio(
            self.jcts,
            self.scenario.fan_in,
            self.scenario.response_bytes,
            self.access_rate_bps,
        )

    def response_fct(self) -> Dict[str, float]:
        return fct_summary(self.responses)


def _simulate_incast(scenario: IncastSweepScenario) -> IncastSweepResult:
    streams, net, hosts = build_cell(scenario)

    # Requests stay tiny, single-path TCP (the paper's small-flow rule);
    # the *responses* — the traffic that collapses — run the scheme
    # under test, which is what makes the sweep a scheme comparison.
    request_factory = TransferFactory(
        net,
        "tcp",
        subflow_count=1,
        rto_min=scenario.rto_min,
        rng=streams.stream("paths-requests"),
        label="REQ-TCP",
    )
    response_factory = scheme_factory(
        net, scenario, streams.stream("paths-responses"), scenario.label()
    )
    pattern = PartitionAggregatePattern(
        request_factory,
        response_factory,
        hosts,
        fan_in=scenario.fan_in,
        request_bytes=scenario.request_bytes,
        response_bytes=scenario.response_bytes,
        concurrent_jobs=scenario.concurrent_jobs,
        rng=streams.stream("incast-sweep"),
    )
    pattern.start()

    monitor = _run_monitored(net, scenario)

    result = IncastSweepResult(
        scenario=scenario,
        jcts=pattern.completion_times(),
        jobs_started=pattern.jobs_started,
        unfinished_ages=pattern.unfinished_ages(scenario.duration),
        responses=list(response_factory.records),
        access_rate_bps=net.link_rate_bps,
        duration=scenario.duration,
    )
    check_fct_invariants(result.responses, scenario.duration, context=scenario.label())
    result._collect(net, monitor)
    return result


# ----------------------------------------------------------------------
# Grids and their views
# ----------------------------------------------------------------------


@dataclass
class WorkloadMatrixResult:
    """The schemes x loads grid, addressable by (label, load)."""

    cells: Dict[Tuple[str, float], WorkloadResult] = field(default_factory=dict)
    campaign: Optional[CampaignResult] = None

    def format(self) -> str:
        headers = [
            "scheme",
            "load",
            "flows",
            "mice p50 (ms)",
            "mice p99 (ms)",
            "all mean (ms)",
            "all p99 (ms)",
            "99p queue (pkt)",
        ]
        rows = []
        for (label, load), cell in self.cells.items():
            bins = cell.fct_table()
            overall = cell.fct_overall()
            rows.append(
                [
                    label.split("/")[0],
                    f"{load:g}",
                    f"{int(overall['count'])}",
                    f"{bins['mice']['p50_s'] * 1e3:.2f}",
                    f"{bins['mice']['p99_s'] * 1e3:.2f}",
                    f"{overall['mean_s'] * 1e3:.2f}",
                    f"{overall['p99_s'] * 1e3:.2f}",
                    f"{cell.queue_p99():.1f}",
                ]
            )
        workload = next(iter(self.cells.values())).scenario.workload if self.cells else "?"
        return format_table(
            headers, rows, title=f"Workload matrix ({workload}, FCT by load)"
        )


def matrix_cells(
    base: WorkloadScenario,
    schemes: Sequence[Tuple[str, int]] = MATRIX_SCHEMES,
    loads: Sequence[float] = MATRIX_LOADS,
) -> List[WorkloadScenario]:
    """Every (scheme, load) workload cell."""
    return [
        replace(base, scheme=scheme, subflows=subflows, load=load)
        for scheme, subflows in schemes
        for load in loads
    ]


def matrix_view(
    grid: Sequence[WorkloadScenario], outcome: CampaignResult
) -> WorkloadMatrixResult:
    result = WorkloadMatrixResult(campaign=outcome)
    for scenario, cell in zip(grid, outcome.values):
        result.cells[(scenario.label(), scenario.load)] = cell
    return result


@dataclass
class IncastSweepTable:
    """The schemes x fan-ins grid with JCT and collapse columns."""

    cells: Dict[Tuple[str, int], IncastSweepResult] = field(default_factory=dict)
    campaign: Optional[CampaignResult] = None

    def format(self) -> str:
        headers = [
            "scheme",
            "fan-in",
            "rounds",
            "JCT p50 (ms)",
            "JCT p99 (ms)",
            "collapse",
            "resp p99 (ms)",
            "99p queue (pkt)",
        ]
        rows = []
        for (label, fan_in), cell in self.cells.items():
            jct = duration_summary(cell.jcts)
            resp = cell.response_fct()
            rows.append(
                [
                    label.split("/")[0],
                    f"{fan_in}",
                    f"{len(cell.jcts)}",
                    f"{jct['p50_s'] * 1e3:.2f}",
                    f"{jct['p99_s'] * 1e3:.2f}",
                    f"{cell.collapse_ratio():.3f}",
                    f"{resp['p99_s'] * 1e3:.2f}",
                    f"{cell.queue_p99():.1f}",
                ]
            )
        return format_table(
            headers, rows, title="Incast fan-in sweep (partition-aggregate)"
        )


def sweep_cells(
    base: IncastSweepScenario,
    schemes: Sequence[Tuple[str, int]] = MATRIX_SCHEMES,
    fan_ins: Sequence[int] = SWEEP_FAN_INS,
) -> List[IncastSweepScenario]:
    """Every (scheme, fan-in) incast cell."""
    return [
        replace(base, scheme=scheme, subflows=subflows, fan_in=fan_in)
        for scheme, subflows in schemes
        for fan_in in fan_ins
    ]


def sweep_view(
    grid: Sequence[IncastSweepScenario], outcome: CampaignResult
) -> IncastSweepTable:
    result = IncastSweepTable(campaign=outcome)
    for scenario, cell in zip(grid, outcome.values):
        result.cells[(scenario.label(), scenario.fan_in)] = cell
    return result


__all__ = [
    "MATRIX_SCHEMES",
    "MATRIX_LOADS",
    "SWEEP_FAN_INS",
    "WorkloadScenario",
    "WorkloadResult",
    "IncastSweepScenario",
    "IncastSweepResult",
    "WorkloadMatrixResult",
    "IncastSweepTable",
    "matrix_cells",
    "matrix_view",
    "sweep_cells",
    "sweep_view",
]

"""The §5.2 fat-tree evaluation engine.

One :class:`FatTreeScenario` describes a (scheme, pattern) cell of the
paper's evaluation; :func:`run_fattree` builds the fat tree, wires the
pattern, runs it for ``duration`` simulated seconds and returns a
:class:`FatTreeResult` carrying everything Tables 1-3 and Figs. 8-11
extract: per-flow records, JCTs, RTT samples per category, and per-link
byte counters.

Runs are cached through :mod:`repro.runner`'s two-tier cache (bounded
in-process LRU plus optional content-addressed disk tier), so the seven
benchmark modules that share runs (Table 1 and Figs. 8/10/11 use the same
simulations) only pay for each simulation once — and a warm disk cache
survives across processes.

Scaling note (DESIGN.md §4): defaults are k=4 and MB-scale flow sizes;
links, delays, K, β, queue sizes, small-flow sizes and RTOmin are the
paper's values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.metrics.collector import RttSampler
from repro.metrics.goodput import FlowRecord
from repro.mptcp.coupling import scheme_label
from repro.sim.random import RandomStreams
from repro.topology.fattree import FatTreeNetwork, build_fattree, fattree_hosts
from repro.traffic.factory import TransferFactory
from repro.traffic.incast import CONCURRENT_JOBS, SERVERS_PER_JOB
from repro.traffic.permutation import PermutationPattern
from repro.traffic.random_pattern import RandomPattern
from repro.workloads.partition_aggregate import PartitionAggregatePattern, check_rounds

PATTERNS = ("permutation", "random", "incast")


@dataclass(frozen=True)
class FatTreeScenario:
    """One cell of the paper's fat-tree evaluation."""

    scheme: str = "xmp"
    subflows: int = 2
    pattern: str = "permutation"
    k: int = 4
    beta: float = 4.0
    marking_threshold: int = 10
    queue_capacity: int = 100
    duration: float = 1.0
    seed: int = 1
    rto_min: float = 0.200
    # Large-flow sizes (scaled; paper: 64-512 MB uniform / Pareto mean 192 MB).
    perm_size_min: int = 2_000_000
    perm_size_max: int = 16_000_000
    random_mean: float = 6_000_000.0
    random_max: float = 24_000_000.0
    # Coexistence (Table 2): second scheme for half the hosts, or None.
    coexist_scheme: Optional[str] = None
    coexist_subflows: int = 2
    rtt_sample_interval: float = 0.005

    def __post_init__(self) -> None:
        # What would otherwise fail inside the cell, checked before any
        # topology is built.
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        hosts = fattree_hosts(self.k)
        if self.pattern == "incast":
            check_rounds(hosts, SERVERS_PER_JOB, CONCURRENT_JOBS)

    def label(self) -> str:
        return scheme_label(self.scheme, self.subflows)

    def coexist_label(self) -> Optional[str]:
        """Label of the coexisting half's flows (Table 2), if any."""
        if self.coexist_scheme is None:
            return None
        return scheme_label(self.coexist_scheme, self.coexist_subflows)


@dataclass
class FatTreeResult:
    """Everything the table/figure views need from one simulation."""

    scenario: FatTreeScenario
    #: Completed large-flow records, keyed by factory label (e.g. "XMP-2").
    records: Dict[str, List[FlowRecord]] = field(default_factory=dict)
    #: Records of large flows still running at the end (rate measured).
    unfinished: Dict[str, List[FlowRecord]] = field(default_factory=dict)
    #: Incast job completion times, seconds.
    jcts: List[float] = field(default_factory=list)
    #: Ages of jobs still running when the simulation ended.
    jct_unfinished_ages: List[float] = field(default_factory=list)
    jobs_started: int = 0
    #: srtt samples per flow category.
    rtt_samples: Dict[str, List[float]] = field(default_factory=dict)
    #: (link name, layer, utilization over the run).
    link_utilization: List[tuple] = field(default_factory=list)
    duration: float = 0.0
    total_marked: int = 0
    total_dropped: int = 0
    events: int = 0

    def all_records(self, label: Optional[str] = None) -> List[FlowRecord]:
        """Completed + unfinished records, optionally for one label."""
        labels = [label] if label is not None else list(self.records)
        out: List[FlowRecord] = []
        for key in labels:
            out.extend(self.records.get(key, []))
            out.extend(self.unfinished.get(key, []))
        return out

    def mean_goodput_bps(self, label: Optional[str] = None) -> float:
        """Average goodput over all (incl. unfinished) large flows."""
        records = self.all_records(label)
        if not records:
            return 0.0
        return sum(r.goodput_bps(self.duration) for r in records) / len(records)

    def utilization_values(self, layer: str) -> List[float]:
        return [u for _, l, u in self.link_utilization if l == layer]


def run_fattree(scenario: FatTreeScenario) -> FatTreeResult:
    """Run (or fetch from the process-wide run cache) one fat-tree scenario."""
    from repro.runner import RunSpec, run_spec

    return run_spec(RunSpec("fattree", scenario)).value


def build_cell(scenario) -> Tuple[RandomStreams, FatTreeNetwork, List[str]]:
    """What every fat-tree cell starts from: the scenario's seeded
    streams, its fabric (``k``, queue size, marking K) and the host list."""
    net = build_fattree(
        k=scenario.k,
        queue_capacity=scenario.queue_capacity,
        marking_threshold=scenario.marking_threshold,
    )
    return RandomStreams(scenario.seed), net, list(net.host_names)


def scheme_factory(
    net: FatTreeNetwork,
    scenario,
    rng: random.Random,
    label: str,
    scheme: Optional[str] = None,
    subflows: Optional[int] = None,
    rtt_sampler: Optional[RttSampler] = None,
) -> TransferFactory:
    """A factory at the scenario's beta and RTOmin, for the scenario's
    scheme under test unless another ``scheme``/``subflows`` is named."""
    return TransferFactory(
        net,
        scenario.scheme if scheme is None else scheme,
        subflow_count=scenario.subflows if subflows is None else subflows,
        beta=scenario.beta,
        rto_min=scenario.rto_min,
        rng=rng,
        rtt_sampler=rtt_sampler,
        label=label,
    )


def _simulate(scenario: FatTreeScenario) -> FatTreeResult:
    if scenario.pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {scenario.pattern!r}")
    streams, net, hosts = build_cell(scenario)
    rtt_sampler = RttSampler(
        net.sim, scenario.rtt_sample_interval, until=scenario.duration
    )
    rtt_sampler.start(scenario.rtt_sample_interval)

    main_factory = scheme_factory(
        net, scenario, streams.stream("paths-main"), scenario.label(),
        rtt_sampler=rtt_sampler,
    )
    factories = [main_factory]
    incast_pattern: Optional[PartitionAggregatePattern] = None

    if scenario.coexist_scheme is not None:
        other_factory = scheme_factory(
            net, scenario, streams.stream("paths-coexist"), scenario.coexist_label(),
            scheme=scenario.coexist_scheme, subflows=scenario.coexist_subflows,
            rtt_sampler=rtt_sampler,
        )
        factories.append(other_factory)
        # Interleave the halves: contiguous halves would land each scheme
        # in its own pods, whose traffic never shares a queue in a fat
        # tree — no coexistence at all.  Destinations span all hosts.
        groups = [(main_factory, hosts[0::2]), (other_factory, hosts[1::2])]
    else:
        groups = [(main_factory, hosts)]

    if scenario.pattern == "permutation":
        for factory, group_hosts in groups:
            pattern = PermutationPattern(
                factory,
                group_hosts,
                size_min_bytes=scenario.perm_size_min,
                size_max_bytes=scenario.perm_size_max,
                rng=streams.stream(f"perm-{factory.label}"),
            )
            pattern.start()
    elif scenario.pattern == "random":
        for factory, group_hosts in groups:
            pattern = RandomPattern(
                factory,
                group_hosts,
                mean_bytes=scenario.random_mean,
                max_bytes=scenario.random_max,
                rng=streams.stream(f"rand-{factory.label}"),
                destinations=hosts,
            )
            pattern.start()
    else:  # incast
        # Small flows are plain TCP (paper: "all the small flows use TCP").
        small_factory = TransferFactory(
            net,
            "tcp",
            subflow_count=1,
            rto_min=scenario.rto_min,
            rng=streams.stream("paths-small"),
            label="TCP-SMALL",
        )
        incast_pattern = PartitionAggregatePattern(
            small_factory, small_factory, hosts, fan_in=SERVERS_PER_JOB,
            concurrent_jobs=CONCURRENT_JOBS, rng=streams.stream("incast"),
        )
        incast_pattern.start()
        # Background large flows follow the Random pattern, source and
        # destination never in the same rack (paper footnote 8).
        for factory, group_hosts in groups:
            background = RandomPattern(
                factory,
                group_hosts,
                mean_bytes=scenario.random_mean,
                max_bytes=scenario.random_max,
                rng=streams.stream(f"bg-{factory.label}"),
                exclude_same_rack=True,
            )
            background.start()

    net.sim.run(until=scenario.duration)

    result = FatTreeResult(scenario=scenario, duration=scenario.duration)
    for factory in factories:
        result.records[factory.label] = list(factory.records)
        result.unfinished[factory.label] = factory.unfinished_records(
            scenario.duration
        )
    if incast_pattern is not None:
        result.jcts = incast_pattern.completion_times()
        result.jct_unfinished_ages = incast_pattern.unfinished_ages(
            scenario.duration
        )
        result.jobs_started = incast_pattern.jobs_started
    result.rtt_samples = {
        category: list(samples)
        for category, samples in rtt_sampler.samples.items()
    }
    result.link_utilization = [
        (link.name, link.layer, link.utilization(scenario.duration))
        for link in net.links
    ]
    result.total_marked = net.total_marked()
    result.total_dropped = net.total_dropped()
    result.events = net.sim.events_processed
    return result


__all__ = [
    "FatTreeScenario",
    "FatTreeResult",
    "run_fattree",
    "PATTERNS",
]

"""The ``fluid`` experiment kind: RunSpec-compatible fluid scenarios.

A :class:`FluidScenario` is a frozen config like any packet scenario —
hashable, picklable, content-fingerprintable — so fluid cells run
through the same Campaign/cache/telemetry machinery.  ``_simulate``
builds the *same* topology the packet engine would (via
``repro.topology``), extracts the fluid model from its links and path
enumeration, lets the network go, and integrates the model.  Every
reader of a fluid cell takes a steady-state tail mean, so the samples
are folded as the solver yields them and a :class:`FluidResult` holds
only the tail means — at k=16, three columns of doubles instead of 47 k
sampled series through the cache, the pickle and the disk tier.  Callers
that need a trajectory call :func:`~repro.fluid.solver.integrate_model`.

Scenario knobs deliberately mirror the packet drivers: ``bottleneck``
is the Fig. 1 dumbbell (N pairs, one marked link), ``fattree`` the
§5.2 fabric under a permutation of long-lived flows.  The ``solver``
choice is part of the spec (and so of the cache fingerprint): reference
and vector solvers agree only to integration tolerance, and a cache
key must name the arithmetic that produced its value.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.bos import DEFAULT_BETA
from repro.experiments.reporting import format_table
from repro.fluid.laws import fluid_law
from repro.fluid.model import PACKET_BITS, FluidModel, model_from_network
from repro.fluid.solver import (
    SAMPLE_STRIDE,
    SOLVERS,
    sample_count,
    steady_state,
    step_count,
    stream_model,
)
from repro.mptcp.coupling import scheme_label
from repro.net.routing import DistinctPathSelector
from repro.sim.random import RandomStreams
from repro.sim.units import (
    BitsPerSecond,
    Seconds,
    gigabits_per_second,
    microseconds,
    seconds,
)
from repro.topology.bottleneck import build_single_bottleneck
from repro.topology.fattree import build_fattree, fattree_hosts
from repro.traffic.permutation import random_derangement

TOPOLOGIES = ("bottleneck", "fattree")

#: The trailing share of the samples a :class:`FluidResult` averages.
STEADY_STATE_FRACTION = 0.3


@dataclass(frozen=True)
class FluidScenario:
    """One fluid cell: scheme x topology x flow population."""

    scheme: str = "xmp"
    topology: str = "bottleneck"
    #: Long-lived flows; every flow runs for the whole horizon.
    flows: int = 4
    subflows: int = 1
    duration: Seconds = seconds(0.2)
    dt: Seconds = seconds(2e-5)
    beta: float = DEFAULT_BETA
    #: Fat-tree port count (``topology="fattree"`` only).
    k: int = 4
    link_rate_bps: BitsPerSecond = gigabits_per_second(1)
    #: No-load RTT of the dumbbell (``topology="bottleneck"`` only).
    base_rtt: Seconds = microseconds(225)
    marking_threshold: int = 10
    queue_capacity: int = 100
    seed: int = 1
    solver: str = "reference"
    sample_stride: int = SAMPLE_STRIDE
    w0: float = 2.0

    def __post_init__(self) -> None:
        # Every knob is checked here, before any topology is built.
        fluid_law(self.scheme)  # a scheme without a fluid law is rejected here
        if self.flows < 1:
            raise ValueError(f"need at least one flow, got {self.flows}")
        if self.subflows < 1:
            raise ValueError(f"need at least one subflow, got {self.subflows}")
        if self.beta < 2:
            raise ValueError(f"beta must be >= 2 (Eq. 1 requires it), got {self.beta}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown fluid topology {self.topology!r} (one of {TOPOLOGIES})")
        if self.topology == "fattree":
            fattree_hosts(self.k)
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r} (one of {SOLVERS})")
        if self.sample_stride < 1:
            raise ValueError(f"sample_stride must be >= 1, got {self.sample_stride}")
        step_count(self.duration, self.dt)  # both must be positive
        if self.dt > self.duration:
            raise ValueError(f"dt ({self.dt}) must not exceed duration ({self.duration})")

    def label(self) -> str:
        base = scheme_label(self.scheme, self.subflows)
        return f"{base}/{self.topology}-f{self.flows}"


@dataclass
class FluidResult:
    """One integrated fluid cell, reduced to its steady state: tail means
    over :data:`STEADY_STATE_FRACTION` of the samples of each subflow's
    window (packets) and rate (packets/s) and each link's queue (packets,
    parallel to ``link_names``)."""

    scenario: FluidScenario
    windows: array
    rates: array
    queues: array
    link_names: Tuple[str, ...]
    #: Flow id of each subflow (parallel to ``windows`` and ``rates``).
    flow_of_subflow: Tuple[int, ...]
    num_flows: int
    #: State updates performed — the events-processed equivalent the
    #: runner's throughput accounting uses.
    events: int

    def steady_state_windows(self) -> List[float]:
        """Per-subflow steady-state window, packets."""
        return list(self.windows)

    def flow_goodputs_bps(self) -> List[float]:
        """Per-flow steady-state rate: subflow fluid rates summed, in bps."""
        return flow_goodputs_bps(self.rates, self.flow_of_subflow, self.num_flows)

    def mean_goodput_bps(self) -> float:
        """Mean per-flow steady-state goodput, bps."""
        goodputs = self.flow_goodputs_bps()
        return sum(goodputs) / len(goodputs) if goodputs else 0.0

    def max_steady_state_queue(self) -> float:
        """The most congested link's steady-state queue, packets."""
        return max(self.queues)

    def format(self) -> str:
        windows = self.steady_state_windows()
        goodputs = self.flow_goodputs_bps()
        rows = [
            ("mean window", f"{sum(windows) / len(windows):.2f} packets"),
            ("mean goodput", f"{sum(goodputs) / len(goodputs) / 1e6:.1f} Mbps"),
            ("min/max goodput",
             f"{min(goodputs) / 1e6:.1f} / {max(goodputs) / 1e6:.1f} Mbps"),
            ("max queue", f"{self.max_steady_state_queue():.1f} packets"),
            ("state updates", f"{self.events}"),
        ]
        return format_table(
            ["steady state", "value"], rows,
            title=f"fluid {self.scenario.label()} ({self.scenario.solver} solver)",
        )


def _permutation_pairs(
    hosts: Sequence[str], flows: int, rng
) -> List[Tuple[str, str]]:
    """Rounds of random permutation traffic: each host sends to one other.

    More flows than hosts means several permutation rounds (distinct
    derangements), matching how the packet side's PermutationPattern
    places long-lived flows.
    """
    pairs: List[Tuple[str, str]] = []
    while len(pairs) < flows:
        pairs.extend(zip(hosts, random_derangement(hosts, rng)))
    return pairs[:flows]


def flow_goodputs_bps(
    rates: Sequence[float], flow_of_subflow: Sequence[int], num_flows: int
) -> List[float]:
    """Per-flow goodput in bps: each flow's subflow rates (packets/s) summed."""
    per_flow = [0.0] * num_flows
    for subflow, flow in enumerate(flow_of_subflow):
        per_flow[flow] += rates[subflow] * PACKET_BITS
    return per_flow


def _build_model(scenario: FluidScenario) -> FluidModel:
    """The scenario's fluid model.  Each flow's paths are selected as the
    model consumes them.  The network is unreachable once this returns,
    but it is a cycle, so it is not freed then: it lives through the
    whole solve until the cell-boundary ``gc.collect()`` in
    :func:`repro.runner.registry.execute`."""
    if scenario.topology == "bottleneck":
        net = build_single_bottleneck(
            num_pairs=scenario.flows,
            bottleneck_rate_bps=scenario.link_rate_bps,
            rtt=scenario.base_rtt,
            queue_capacity=scenario.queue_capacity,
            marking_threshold=scenario.marking_threshold,
        )
        # The dumbbell has one path per pair; extra subflows share it
        # (what multiple addresses on one physical path would do).
        flow_paths = (
            [net.flow_path(flow)] * scenario.subflows
            for flow in range(scenario.flows)
        )
    else:
        net = build_fattree(
            k=scenario.k,
            link_rate_bps=scenario.link_rate_bps,
            queue_capacity=scenario.queue_capacity,
            marking_threshold=scenario.marking_threshold,
        )
        streams = RandomStreams(scenario.seed)
        pairs = _permutation_pairs(
            net.host_names, scenario.flows, streams.stream("fluid-perm")
        )
        selector = DistinctPathSelector(streams.stream("fluid-paths"))
        flow_paths = (
            selector.select(net.paths(src, dst), flow, scenario.subflows)
            for flow, (src, dst) in enumerate(pairs)
        )
    return model_from_network(net, flow_paths)


def _solver_args(scenario: FluidScenario) -> Dict[str, Any]:
    """The scenario's keywords for ``stream_model`` / ``integrate_model``."""
    return dict(
        scheme=scenario.scheme,
        duration=scenario.duration,
        dt=scenario.dt,
        beta=scenario.beta,
        w0=scenario.w0,
        sample_stride=scenario.sample_stride,
        solver=scenario.solver,
    )


def _simulate(scenario: FluidScenario) -> FluidResult:
    """Integrate one fluid scenario (the registered ``fluid`` kind)."""
    model = _build_model(scenario)
    steps = step_count(scenario.duration, scenario.dt)
    windows, rates, queues = steady_state(
        stream_model(model, **_solver_args(scenario)),
        sample_count(steps, scenario.sample_stride),
        STEADY_STATE_FRACTION,
    )
    return FluidResult(
        scenario=scenario,
        windows=windows,
        rates=rates,
        queues=queues,
        link_names=model.link_names,
        flow_of_subflow=tuple(model.flow_of),
        num_flows=model.num_flows,
        events=steps * (len(model.flow_of) + len(model.link_names)),
    )


__all__ = [
    "STEADY_STATE_FRACTION",
    "TOPOLOGIES",
    "FluidResult",
    "FluidScenario",
    "flow_goodputs_bps",
]

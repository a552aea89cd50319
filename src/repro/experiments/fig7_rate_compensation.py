"""Fig. 7 — rate compensation on the Fig. 5 torus.

Five XMP flows, each with two subflows over neighbouring bottlenecks of
the ring (capacities 0.8/1.2/2/1.5/0.5 Gbps, RTT 350 µs), start 5 s
apart.  From 25 s, four background flows join L3 one by one (5 s apart)
and leave one by one from 45 s; at 60 s link L3 is closed outright.  The
run ends at 70 s.

Expected shape (the "attenuated Dominos"): as L3 congests, Flow 2-2 and
Flow 3-1 sink while their siblings 2-1 and 3-2 rise; that in turn presses
Flow 1-2 and Flow 4-1 down a little; Flows 1-1, 4-2, 5-* barely move.
After 45 s everything mirrors back; at 60 s the L3 subflows collapse to
zero and their siblings jump.

The paper runs (β, K) ∈ {(4, 20), (5, 15), (6, 10)} — K from Eq. 1 with
the largest-BDP path — and plots 5 s-averaged subflow rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.experiments.reporting import format_table
from repro.metrics.collector import RateSampler
from repro.metrics.series import TimeSeries
from repro.mptcp.connection import MptcpConnection
from repro.topology.torus import DEFAULT_CAPACITIES, build_torus


@dataclass(frozen=True)
class Fig7Config:
    beta: float = 4.0
    marking_threshold: int = 20
    scheme: str = "xmp"
    time_scale: float = 1.0  # 1.0 = the paper's 70 s experiment
    rtt: float = 350e-6
    queue_capacity: int = 100
    num_background: int = 4
    sample_interval: float = 5.0  # the paper averages per 5 s interval


@dataclass
class Fig7Result:
    config: Fig7Config
    #: Rate (bits/s) versus time: "flow{i}-{j}" for the five main flows,
    #: "bg{b}" for background.
    series: TimeSeries = field(default_factory=TimeSeries)
    capacities: List[float] = field(default_factory=list)
    #: Simulator events processed (runner observability).
    events: int = 0

    def normalized_mean(self, name: str, start: float, end: float) -> float:
        """Mean rate over a window, normalized like the paper (1 Gbps)."""
        return self.series.mean(name, start, end) / 1e9

    def format(self) -> str:
        s = self.config.time_scale
        rows = []
        for i in range(1, 6):
            for j in (1, 2):
                name = f"flow{i}-{j}"
                rows.append(
                    (
                        name,
                        f"{self.normalized_mean(name, 20 * s, 25 * s):.3f}",
                        f"{self.normalized_mean(name, 40 * s, 45 * s):.3f}",
                        f"{self.normalized_mean(name, 65 * s, 70 * s):.3f}",
                    )
                )
        return format_table(
            ["subflow", "pre (20-25s)", "congested (40-45s)", "L3 closed (65-70s)"],
            rows,
            title=f"Fig. 7 (beta={self.config.beta}, K={self.config.marking_threshold})",
        )


def _simulate(config: Fig7Config) -> Fig7Result:
    """Simulate Fig. 7; returns 5 s-averaged subflow rates."""
    s = config.time_scale
    net = build_torus(
        capacities=DEFAULT_CAPACITIES,
        rtt=config.rtt,
        queue_capacity=config.queue_capacity,
        marking_threshold=config.marking_threshold,
        num_background=config.num_background,
    )
    total = 70.0 * s
    sampler = RateSampler(net.sim, {}, interval=config.sample_interval * s,
                          until=total)

    for i in range(1, 6):
        connection = MptcpConnection(
            net, f"S{i}", f"D{i}", net.flow_paths(i),
            scheme=config.scheme, beta=config.beta,
        )
        for j, subflow in enumerate(connection.subflows, start=1):
            sampler.add_sender(f"flow{i}-{j}", subflow.sender)
        net.sim.schedule((i - 1) * 5.0 * s, connection.start)

    for b in range(1, config.num_background + 1):
        background = MptcpConnection(
            net, f"BG{b}", f"BGD{b}", [net.background_path(b)],
            scheme=config.scheme, beta=config.beta,
        )
        sampler.add_sender(f"bg{b}", background.subflows[0].sender)
        net.sim.schedule((25.0 + (b - 1) * 5.0) * s, background.start)
        net.sim.schedule((45.0 + (b - 1) * 5.0) * s, background.stop)

    l3 = net.bottleneck(3)
    net.sim.schedule(60.0 * s, net.set_link_pair_down, l3)

    sampler.start(config.sample_interval * s)
    net.sim.run(until=total)
    return Fig7Result(
        config=config,
        series=sampler.series,
        capacities=list(DEFAULT_CAPACITIES),
        events=net.sim.events_processed,
    )


__all__ = ["Fig7Config", "Fig7Result"]

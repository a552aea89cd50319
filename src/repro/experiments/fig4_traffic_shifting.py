"""Fig. 4 — traffic shifting on the Fig. 3(a) testbed.

Flows 1, 2, 3 start at 0 s; Flow 2 has one subflow over each 300 Mbps
bottleneck.  A background flow runs on DN1 from 10 s to 20 s and another
on DN2 from 20 s to 30 s; the experiment runs to 40 s.  XMP should shift
Flow 2's traffic away from whichever bottleneck carries the background
flow, with a rate-compensating rise on the sibling subflow; the paper
contrasts β = 4 (clean shifting) with β = 6 (sluggish, may stall under
global synchronization).

All times scale with ``time_scale`` so tests can run compressed versions;
the bottleneck parameters (300 Mbps, RTT 1.8 ms, K = 15, queue 100) stay
at the paper's values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.experiments.reporting import format_table
from repro.metrics.collector import RateSampler
from repro.metrics.series import TimeSeries
from repro.mptcp.connection import MptcpConnection
from repro.topology.testbed import build_shifting_testbed


@dataclass(frozen=True)
class Fig4Config:
    beta: float = 4.0
    scheme: str = "xmp"
    time_scale: float = 1.0  # 1.0 = the paper's 40 s experiment
    bottleneck_rate_bps: float = 300e6
    rtt: float = 1.8e-3
    marking_threshold: int = 15
    queue_capacity: int = 100
    sample_interval: float = 0.25


@dataclass
class Fig4Result:
    config: Fig4Config
    #: Per-subflow rate (bits/s) versus time.
    series: TimeSeries = field(default_factory=TimeSeries)
    #: Simulator events processed (runner observability).
    events: int = 0

    def normalized(self, name: str) -> List[float]:
        cap = self.config.bottleneck_rate_bps
        return [rate / cap for rate in self.series[name]]

    def mean_normalized(self, name: str, start: float, end: float) -> float:
        return self.series.mean(name, start, end) / self.config.bottleneck_rate_bps

    def phases(self) -> Dict[str, Tuple[float, float]]:
        """The experiment's windows in (scaled) absolute time."""
        s = self.config.time_scale
        return {
            "baseline": (4.0 * s, 10.0 * s),
            "bg_on_dn1": (12.0 * s, 20.0 * s),
            "bg_on_dn2": (22.0 * s, 30.0 * s),
            "recovered": (32.0 * s, 40.0 * s),
        }

    def format(self) -> str:
        rows = [
            (
                phase,
                f"{self.mean_normalized('flow2-1', start, end):.3f}",
                f"{self.mean_normalized('flow2-2', start, end):.3f}",
            )
            for phase, (start, end) in self.phases().items()
        ]
        return format_table(
            ["phase", "subflow 1", "subflow 2"], rows,
            title=f"Fig. 4 (beta={self.config.beta}): Flow 2 normalized rates",
        )


def _simulate(config: Fig4Config) -> Fig4Result:
    """Simulate Fig. 4 and return Flow 2's subflow rate series."""
    s = config.time_scale
    net = build_shifting_testbed(
        bottleneck_rate_bps=config.bottleneck_rate_bps,
        rtt=config.rtt,
        queue_capacity=config.queue_capacity,
        marking_threshold=config.marking_threshold,
    )
    flow1 = MptcpConnection(net, "S1", "D1", [net.path_flow1()],
                            scheme=config.scheme, beta=config.beta)
    flow3 = MptcpConnection(net, "S3", "D3", [net.path_flow3()],
                            scheme=config.scheme, beta=config.beta)
    flow2 = MptcpConnection(net, "S2", "D2", net.paths_flow2(),
                            scheme=config.scheme, beta=config.beta)
    bg1 = MptcpConnection(net, "BG1", "BGD1", [net.path_background(1)],
                          scheme=config.scheme, beta=config.beta)
    bg2 = MptcpConnection(net, "BG2", "BGD2", [net.path_background(2)],
                          scheme=config.scheme, beta=config.beta)

    for connection in (flow1, flow2, flow3):
        net.sim.schedule(0.0, connection.start)
    net.sim.schedule(10.0 * s, bg1.start)
    net.sim.schedule(20.0 * s, bg1.stop)
    net.sim.schedule(20.0 * s, bg2.start)
    net.sim.schedule(30.0 * s, bg2.stop)

    total = 40.0 * s
    sampler = RateSampler(
        net.sim,
        {
            "flow2-1": flow2.subflows[0].sender,
            "flow2-2": flow2.subflows[1].sender,
            "flow1": flow1.subflows[0].sender,
            "flow3": flow3.subflows[0].sender,
        },
        interval=config.sample_interval * s,
        until=total,
    )
    sampler.start(config.sample_interval * s)
    net.sim.run(until=total)
    return Fig4Result(
        config=config,
        series=sampler.series,
        events=net.sim.events_processed,
    )


__all__ = ["Fig4Config", "Fig4Result"]

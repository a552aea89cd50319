"""Fig. 6 — fairness of XMP regardless of subflow count (Fig. 3(b) testbed).

Four flows share one 300 Mbps bottleneck.  Flow 1 establishes subflows at
0 s / 5 s / 15 s; Flow 2 establishes two subflows at 20 s; Flows 3 and 4
are single-path, starting at 0 s and 10 s and both stopping at 25 s; the
run ends at 30 s.  With β = 4 the four flows share the link equally
irrespective of subflow count (every flow ≈ 1/4 in 20-25 s); with β = 6
fairness degrades.

All subflows traverse the *same* bottleneck (that is the point: the
coupling must prevent a 3-subflow flow from taking 3 shares).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.reporting import format_table
from repro.metrics.collector import RateSampler
from repro.metrics.fairness import jain_index
from repro.metrics.series import TimeSeries
from repro.mptcp.connection import MptcpConnection
from repro.topology.bottleneck import build_single_bottleneck


@dataclass(frozen=True)
class Fig6Config:
    beta: float = 4.0
    scheme: str = "xmp"
    time_scale: float = 1.0  # 1.0 = the paper's 30 s experiment
    bottleneck_rate_bps: float = 300e6
    rtt: float = 1.8e-3
    marking_threshold: int = 15
    queue_capacity: int = 100
    sample_interval: float = 0.25


@dataclass
class Fig6Result:
    config: Fig6Config
    #: Rate (bits/s) versus time, keyed "flow{i}-{j}" per subflow.
    series: TimeSeries = field(default_factory=TimeSeries)
    #: Simulator events processed (runner observability).
    events: int = 0

    def flow_rate_between(self, flow: int, start: float, end: float) -> float:
        """Mean total rate of one flow (all its subflows) over a window."""
        total = 0.0
        for name in self.series.columns:
            if name.startswith(f"flow{flow}-"):
                total += self.series.mean(name, start, end)
        return total

    def fairness_all_flows(self) -> float:
        """Jain's index over the four flow rates in the all-active window."""
        s = self.config.time_scale
        start, end = 21.0 * s, 25.0 * s
        rates = [self.flow_rate_between(flow, start, end) for flow in (1, 2, 3, 4)]
        return jain_index(rates)

    def format(self) -> str:
        s = self.config.time_scale
        rows = [
            (f"flow {flow}",
             f"{self.flow_rate_between(flow, 21 * s, 25 * s) / 1e6:.1f} Mbps")
            for flow in (1, 2, 3, 4)
        ]
        table = format_table(["flow", "rate (20-25s window)"], rows,
                             title=f"Fig. 6 (beta={self.config.beta})")
        return f"{table}\nJain index: {self.fairness_all_flows():.4f}"


def _simulate(config: Fig6Config) -> Fig6Result:
    """Simulate Fig. 6; returns per-subflow rate series."""
    s = config.time_scale
    net = build_single_bottleneck(
        num_pairs=4,
        bottleneck_rate_bps=config.bottleneck_rate_bps,
        rtt=config.rtt,
        queue_capacity=config.queue_capacity,
        marking_threshold=config.marking_threshold,
    )
    sampler = RateSampler(net.sim, {}, interval=config.sample_interval * s,
                          until=30.0 * s)

    def make_flow(index: int, subflow_count: int) -> MptcpConnection:
        path = net.flow_path(index - 1)
        connection = MptcpConnection(
            net, f"S{index-1}", f"D{index-1}", [path] * subflow_count,
            scheme=config.scheme, beta=config.beta,
        )
        for j, subflow in enumerate(connection.subflows, start=1):
            sampler.add_sender(f"flow{index}-{j}", subflow.sender)
        return connection

    flow1 = make_flow(1, 1)  # grows to 3 subflows
    flow2 = make_flow(2, 2)
    flow3 = make_flow(3, 1)
    flow4 = make_flow(4, 1)

    path1 = net.flow_path(0)

    def add_flow1_subflow(label: str) -> None:
        subflow = flow1.add_subflow(path1, start=True)
        sampler.add_sender(label, subflow.sender)

    net.sim.schedule(0.0, flow1.start)
    net.sim.schedule(5.0 * s, add_flow1_subflow, "flow1-2")
    net.sim.schedule(15.0 * s, add_flow1_subflow, "flow1-3")
    net.sim.schedule(20.0 * s, flow2.start)
    net.sim.schedule(0.0, flow3.start)
    net.sim.schedule(10.0 * s, flow4.start)
    net.sim.schedule(25.0 * s, flow3.stop)
    net.sim.schedule(25.0 * s, flow4.stop)

    sampler.start(config.sample_interval * s)
    net.sim.run(until=30.0 * s)
    return Fig6Result(
        config=config,
        series=sampler.series,
        events=net.sim.events_processed,
    )


__all__ = ["Fig6Config", "Fig6Result"]

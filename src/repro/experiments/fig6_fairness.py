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
from repro.experiments.scene import Flow, Scene, play
from repro.metrics.fairness import jain_index
from repro.metrics.series import TimeSeries


@dataclass(frozen=True)
class Fig6Config:
    beta: float = 4.0
    time_scale: float = 1.0  # 1.0 = the paper's 30 s experiment


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


def build_scene(config: Fig6Config) -> Scene:
    """Four XMP flows with 1 (growing to 3), 2, 1 and 1 subflows on one
    300 Mbps bottleneck (RTT 1.8 ms, K = 15, 100-packet queue), sampled
    every 0.25 s (all times scaled)."""
    s = config.time_scale
    return Scene(
        "bottleneck",
        (("num_pairs", 4), ("bottleneck_rate_bps", 300e6), ("rtt", 1.8e-3),
         ("queue_capacity", 100), ("marking_threshold", 15)),
        flows=tuple(
            Flow(f"S{i}", f"D{i}", (None,) * subflows, "xmp", config.beta)
            for i, subflows in enumerate((1, 2, 1, 1))
        ),
        script=(
            (0.0, "start", 0), (5.0 * s, "add_subflow", 0), (15.0 * s, "add_subflow", 0),
            (20.0 * s, "start", 1), (0.0, "start", 2), (10.0 * s, "start", 3),
            (25.0 * s, "stop", 2), (25.0 * s, "stop", 3),
        ),
        horizon=30.0 * s,
        samples=(
            ("flow1-1", 0, 0), ("flow2-1", 1, 0), ("flow2-2", 1, 1), ("flow3-1", 2, 0),
            ("flow4-1", 3, 0), ("flow1-2", 0, 1), ("flow1-3", 0, 2),
        ),
        sample_interval=0.25 * s,
    )


def _simulate(config: Fig6Config) -> Fig6Result:
    """Simulate Fig. 6; returns per-subflow rate series."""
    _net, _connections, series, events = play(build_scene(config))
    return Fig6Result(config=config, series=series, events=events)


__all__ = ["Fig6Config", "Fig6Result", "build_scene"]

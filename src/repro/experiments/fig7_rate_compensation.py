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
from repro.experiments.scene import Flow, Scene, play
from repro.metrics.series import TimeSeries
from repro.topology.torus import DEFAULT_CAPACITIES


@dataclass(frozen=True)
class Fig7Config:
    beta: float = 4.0
    marking_threshold: int = 20
    time_scale: float = 1.0  # 1.0 = the paper's 70 s experiment


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


def build_scene(config: Fig7Config) -> Scene:
    """Five two-subflow XMP flows starting 5 s apart, four background
    flows on L3 (joining from 25 s, leaving from 45 s, 5 s apart), L3
    closed at 60 s, sampled every 5 s as the paper averages (all times
    scaled); RTT 350 µs, 100-packet queues."""
    s = config.time_scale
    beta = config.beta
    main = [Flow(f"S{i}", f"D{i}", (f"A{i}->B{i}", f"A{i % 5 + 1}->B{i % 5 + 1}"), "xmp", beta)
            for i in range(1, 6)]
    background = [Flow(f"BG{b}", f"BGD{b}", (None,), "xmp", beta) for b in range(1, 5)]
    script = [((i - 1) * 5.0 * s, "start", i - 1) for i in range(1, 6)]
    for b in range(1, 5):
        script += [((25.0 + (b - 1) * 5.0) * s, "start", 4 + b),
                   ((45.0 + (b - 1) * 5.0) * s, "stop", 4 + b)]
    script.append((60.0 * s, "link_down", "A3->B3"))
    samples = [(f"flow{i}-{j}", i - 1, j - 1) for i in range(1, 6) for j in (1, 2)]
    samples += [(f"bg{b}", 4 + b, 0) for b in range(1, 5)]
    return Scene(
        "torus",
        (("capacities", DEFAULT_CAPACITIES), ("rtt", 350e-6), ("queue_capacity", 100),
         ("marking_threshold", config.marking_threshold), ("num_background", 4)),
        flows=tuple(main + background),
        script=tuple(script),
        horizon=70.0 * s,
        samples=tuple(samples),
        sample_interval=5.0 * s,
    )


def _simulate(config: Fig7Config) -> Fig7Result:
    """Simulate Fig. 7; returns 5 s-averaged subflow rates."""
    _net, _connections, series, events = play(build_scene(config))
    return Fig7Result(config=config, series=series,
                      capacities=list(DEFAULT_CAPACITIES), events=events)


__all__ = ["Fig7Config", "Fig7Result", "build_scene"]

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
from repro.experiments.scene import Flow, Scene, play
from repro.metrics.series import TimeSeries


#: Each DummyNet bottleneck's rate, bits/second.
BOTTLENECK_RATE_BPS = 300e6


@dataclass(frozen=True)
class Fig4Config:
    beta: float = 4.0
    scheme: str = "xmp"
    time_scale: float = 1.0  # 1.0 = the paper's 40 s experiment


@dataclass
class Fig4Result:
    config: Fig4Config
    #: Per-subflow rate (bits/s) versus time.
    series: TimeSeries = field(default_factory=TimeSeries)
    #: Simulator events processed (runner observability).
    events: int = 0

    def normalized(self, name: str) -> List[float]:
        return [rate / BOTTLENECK_RATE_BPS for rate in self.series[name]]

    def mean_normalized(self, name: str, start: float, end: float) -> float:
        return self.series.mean(name, start, end) / BOTTLENECK_RATE_BPS

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


def build_scene(config: Fig4Config) -> Scene:
    """Flows 1-3 from 0 s, background on DN1 for 10-20 s and on DN2 for
    20-30 s, sampled every 0.25 s (all scaled); flows are constructed
    1, 3, 2, BG1, BG2 and started 1, 2, 3."""
    s = config.time_scale
    scheme, beta = config.scheme, config.beta
    return Scene(
        "testbed",
        (("bottleneck_rate_bps", BOTTLENECK_RATE_BPS), ("rtt", 1.8e-3),
         ("queue_capacity", 100), ("marking_threshold", 15)),
        flows=(
            Flow("S1", "D1", (None,), scheme, beta),
            Flow("S3", "D3", (None,), scheme, beta),
            Flow("S2", "D2", ("A1->B1", "A2->B2"), scheme, beta),
            Flow("BG1", "BGD1", (None,), scheme, beta),
            Flow("BG2", "BGD2", (None,), scheme, beta),
        ),
        script=(
            (0.0, "start", 0), (0.0, "start", 2), (0.0, "start", 1),
            (10.0 * s, "start", 3), (20.0 * s, "stop", 3),
            (20.0 * s, "start", 4), (30.0 * s, "stop", 4),
        ),
        horizon=40.0 * s,
        samples=(("flow2-1", 2, 0), ("flow2-2", 2, 1), ("flow1", 0, 0), ("flow3", 1, 0)),
        sample_interval=0.25 * s,
    )


def _simulate(config: Fig4Config) -> Fig4Result:
    """Simulate Fig. 4 and return Flow 2's subflow rate series."""
    _net, _connections, series, events = play(build_scene(config))
    return Fig4Result(config=config, series=series, events=events)


__all__ = ["Fig4Config", "Fig4Result", "build_scene"]

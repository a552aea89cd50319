"""Fig. 1 — convergence and fairness on one bottleneck.

Four flows compete for a 1 Gbps link (RTT 225 µs, BDP ≈ 19 packets).
Flows join at 0/1/2/3 intervals and leave at 4/5/6 intervals (the paper
"starts or stops a flow with an interval of 5 s"), so every interval
boundary breaks the equilibrium.  The paper contrasts DCTCP (K = 10, 20)
against constant-factor halving — i.e. BOS with β = 2 — at the same
thresholds: DCTCP converges slowly and can lock into unfair allocations
under global synchronization, while the constant cut re-converges fast.

Outputs per run: the rate-versus-time series of each flow (Fig. 1's
curves) and, per steady-state segment, Jain's index over the active flows
measured in the tail of the segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.experiments.reporting import format_table
from repro.experiments.scene import Flow, Scene, play
from repro.metrics.fairness import jain_index
from repro.metrics.series import TimeSeries

#: Flow join offsets and leave offsets, in units of the interval.
JOIN_STEPS = (0, 1, 2, 3)
LEAVE_STEPS = (4, 5, 6)
TOTAL_STEPS = 7
#: The shared link every flow crosses, bits/second.
BOTTLENECK_RATE_BPS = 1e9
#: Jain's index is taken over this trailing fraction of each segment.
TAIL_FRACTION = 0.4
#: A flow has converged once its rate is within this fraction of the
#: fair share.
CONVERGENCE_TOLERANCE = 0.3


@dataclass(frozen=True)
class Fig1Config:
    """One Fig. 1 panel."""

    scheme: str = "dctcp"  # "dctcp" or "bos" (constant-factor cut)
    beta: float = 2.0  # only used by "bos"; beta=2 is "halving cwnd"
    marking_threshold: int = 10
    interval: float = 5.0  # the paper's 5 s; tests use much less
    sample_interval: float = 0.05

    def __post_init__(self) -> None:
        # Rate samples fall on multiples of sample_interval; each
        # segment's tail [end - TAIL_FRACTION * interval, end] must hold
        # one, or its Jain index would be taken over no data.  The 1e-9
        # slack keeps a sample that lands on a window edge inside it.
        if self.interval <= 0 or self.sample_interval <= 0:
            raise ValueError("interval and sample_interval must be positive")
        for step in range(1, TOTAL_STEPS + 1):
            end = step * self.interval
            start = end - TAIL_FRACTION * self.interval
            if math.ceil(start / self.sample_interval - 1e-9) > math.floor(
                end / self.sample_interval + 1e-9
            ):
                raise ValueError(
                    f"interval {self.interval:g} s: the last "
                    f"{TAIL_FRACTION:.0%} of segment {step} "
                    f"([{start:g}, {end:g}] s) holds no rate sample at "
                    f"the {self.sample_interval:g} s sample interval"
                )


@dataclass
class Fig1Result:
    """Rate series plus per-segment fairness."""

    config: Fig1Config
    #: Per-flow rate (bits/s) versus time, keyed "flow{i}".
    series: TimeSeries = field(default_factory=TimeSeries)
    #: (segment_start, segment_end, active_flow_count, jain_index)
    segments: List[Tuple[float, float, int, float]] = field(default_factory=list)
    #: Active flow indices per segment (parallel to ``segments``).
    segment_flows: List[List[int]] = field(default_factory=list)
    #: Simulator events processed (runner observability).
    events: int = 0

    def worst_jain(self) -> float:
        """The worst steady-state fairness across multi-flow segments."""
        multi = [j for _, _, n, j in self.segments if n >= 2]
        return min(multi) if multi else 1.0

    def convergence_time(self, segment_index: int) -> float:
        """Seconds from a segment's start until rates settle at fair share.

        Convergence is the earliest sample time after which *every* active
        flow's rate stays within :data:`CONVERGENCE_TOLERANCE` x fair share
        of the fair share for the remainder of the segment.  Returns the
        full segment length if the segment never converges — the quantity
        the paper's Fig. 1 narrative contrasts between DCTCP and
        constant-factor cuts.
        """
        start, end, active_count, _jain = self.segments[segment_index]
        flows = self.segment_flows[segment_index]
        fair = BOTTLENECK_RATE_BPS / active_count
        band = CONVERGENCE_TOLERANCE * fair
        times = self.series.times
        sample_indices = [i for i, t in enumerate(times) if start < t <= end]
        converged_from = None
        for i in sample_indices:
            within = all(
                abs(self.series[f"flow{flow + 1}"][i] - fair) <= band
                for flow in flows
            )
            if within:
                if converged_from is None:
                    converged_from = times[i]
            else:
                converged_from = None
        if converged_from is None:
            return end - start
        return converged_from - start

    def mean_convergence_time(self) -> float:
        """Average convergence time over multi-flow segments."""
        times = [
            self.convergence_time(i)
            for i, (_, _, n, _) in enumerate(self.segments)
            if n >= 2
        ]
        return sum(times) / len(times) if times else 0.0

    def format(self) -> str:
        rows = [
            (f"{start:.1f}-{end:.1f}s", active, f"{jain:.4f}")
            for start, end, active, jain in self.segments
        ]
        table = format_table(
            ["segment", "active flows", "Jain"], rows,
            title=f"Fig. 1 ({self.config.scheme}, K={self.config.marking_threshold})",
        )
        return f"{table}\nworst multi-flow Jain: {self.worst_jain():.4f}"


def build_scene(config: Fig1Config) -> Scene:
    """Four flows on one 1 Gbps bottleneck (RTT 225 µs, 100-packet
    queue), joining at :data:`JOIN_STEPS` and leaving at
    :data:`LEAVE_STEPS` intervals."""
    scheme = {"dctcp": "dctcp", "bos": "bos-uncoupled"}[config.scheme]
    interval = config.interval
    return Scene(
        "bottleneck",
        (("num_pairs", 4), ("bottleneck_rate_bps", BOTTLENECK_RATE_BPS), ("rtt", 225e-6),
         ("queue_capacity", 100), ("marking_threshold", config.marking_threshold)),
        flows=tuple(Flow(f"S{i}", f"D{i}", (None,), scheme, config.beta) for i in range(4)),
        script=tuple((step * interval, "start", i) for i, step in enumerate(JOIN_STEPS))
        + tuple((step * interval, "stop", i) for i, step in enumerate(LEAVE_STEPS)),
        horizon=TOTAL_STEPS * interval,
        samples=tuple((f"flow{i + 1}", i, 0) for i in range(4)),
        sample_interval=config.sample_interval,
    )


def _running(scene: Scene, at: float) -> List[int]:
    """The flows the script has started, and not stopped, by time ``at``."""
    started = {flow for time, action, flow in scene.script if action == "start" and time <= at}
    stopped = {flow for time, action, flow in scene.script if action == "stop" and time <= at}
    return sorted(started - stopped)


def _simulate(config: Fig1Config) -> Fig1Result:
    """Simulate one panel of Fig. 1 and return its series and fairness."""
    scene = build_scene(config)
    _net, _connections, series, events = play(scene)
    result = Fig1Result(config=config, series=series, events=events)

    # Fairness in the tail (last TAIL_FRACTION) of each between-events segment.
    interval = config.interval
    for step in range(TOTAL_STEPS):
        seg_start, seg_end = step * interval, (step + 1) * interval
        active = _running(scene, seg_start)
        if not active:
            continue
        tail_start = seg_end - TAIL_FRACTION * interval
        if not any(tail_start <= t <= seg_end for t in series.times):
            raise ValueError(
                f"segment {step + 1} holds no rate sample in its tail "
                f"[{tail_start:g}, {seg_end:g}] s"
            )
        means = [series.mean(f"flow{i+1}", tail_start, seg_end) for i in active]
        result.segments.append((seg_start, seg_end, len(active), jain_index(means)))
        result.segment_flows.append(active)
    return result


__all__ = ["Fig1Config", "Fig1Result", "JOIN_STEPS", "LEAVE_STEPS", "build_scene"]

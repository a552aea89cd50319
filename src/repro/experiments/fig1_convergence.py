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

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.experiments.reporting import format_table
from repro.metrics.collector import RateSampler
from repro.metrics.fairness import jain_index
from repro.metrics.series import TimeSeries
from repro.mptcp.connection import MptcpConnection
from repro.topology.bottleneck import build_single_bottleneck

#: Flow join offsets and leave offsets, in units of the interval.
JOIN_STEPS = (0, 1, 2, 3)
LEAVE_STEPS = (4, 5, 6)
TOTAL_STEPS = 7
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
    bottleneck_rate_bps: float = 1e9
    rtt: float = 225e-6
    queue_capacity: int = 100
    num_flows: int = 4
    sample_interval: float = 0.05


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
        fair = self.config.bottleneck_rate_bps / active_count
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


def _simulate(config: Fig1Config) -> Fig1Result:
    """Simulate one panel of Fig. 1 and return its series and fairness."""
    scheme = {"dctcp": "dctcp", "bos": "bos-uncoupled"}[config.scheme]
    net = build_single_bottleneck(
        num_pairs=config.num_flows,
        bottleneck_rate_bps=config.bottleneck_rate_bps,
        rtt=config.rtt,
        queue_capacity=config.queue_capacity,
        marking_threshold=config.marking_threshold,
    )
    flows = []
    for i in range(config.num_flows):
        connection = MptcpConnection(
            net, f"S{i}", f"D{i}", [net.flow_path(i)],
            scheme=scheme, beta=config.beta,
        )
        flows.append(connection)

    interval = config.interval
    for i, connection in enumerate(flows):
        net.sim.post(JOIN_STEPS[i % len(JOIN_STEPS)] * interval, connection.start)
    for i, step in enumerate(LEAVE_STEPS):
        if i < len(flows):
            net.sim.post(step * interval, flows[i].stop)

    total_time = TOTAL_STEPS * interval
    sampler = RateSampler(
        net.sim,
        {f"flow{i+1}": conn.subflows[0].sender for i, conn in enumerate(flows)},
        interval=config.sample_interval,
        until=total_time,
    )
    sampler.start(config.sample_interval)
    net.sim.run(until=total_time)

    result = Fig1Result(config=config, series=sampler.series)

    # Fairness in the tail (last 40%) of each between-events segment.
    for step in range(TOTAL_STEPS):
        seg_start, seg_end = step * interval, (step + 1) * interval
        active = [
            i
            for i in range(config.num_flows)
            if JOIN_STEPS[i % len(JOIN_STEPS)] <= step
            and (i >= len(LEAVE_STEPS) or LEAVE_STEPS[i] > step)
        ]
        if not active:
            continue
        tail_start = seg_end - 0.4 * interval
        means = []
        for i in active:
            means.append(result.series.mean(f"flow{i+1}", tail_start, seg_end))
        result.segments.append(
            (seg_start, seg_end, len(active), jain_index(means))
        )
        result.segment_flows.append(active)
    result.events = net.sim.events_processed
    return result


__all__ = ["Fig1Config", "Fig1Result", "JOIN_STEPS", "LEAVE_STEPS"]

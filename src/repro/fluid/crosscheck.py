"""Fluid-vs-packet cross-validation on the paper's golden scenarios.

The fluid backend's acceptance contract: on scenarios both backends can
run, steady-state windows, queues and per-flow goodputs must agree
within the documented tolerances below.  Two scenario families cover
the golden cells:

* **bottleneck** — the Fig. 1 dumbbell (N flows, 1 Gbps, RTT 225 us,
  K=10): per-flow steady-state window, bottleneck queue, per-flow
  goodput;
* **fattree** — the Table 1 permutation cell (k=4, XMP-2): mean
  per-flow goodput.

Tolerances are deliberately loose enough to absorb what the fluid
limit *cannot* model (the packet engine's sawtooth discreteness,
slow-start overshoot, stochastic path collisions) and tight enough to
catch a wrong equilibrium: a window off by Eq. 3's ``beta`` factor, a
queue settling away from K, or a goodput share off by a flow count.
``scripts/check.sh`` runs the quick variant as a smoke; the full
variant runs in the tier-1 suite (``tests/test_fluid_crosscheck.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.fluid.backend import (
    FluidScenario,
    _build_model,
    _solver_args,
    flow_goodputs_bps,
)
from repro.fluid.solver import FluidTrajectory, integrate_model
from repro.metrics.collector import QueueMonitor, SeriesSampler
from repro.mptcp.connection import MptcpConnection
from repro.sim.units import (
    BitsPerSecond,
    Seconds,
    gigabits_per_second,
    microseconds,
    seconds,
)
from repro.topology.bottleneck import build_single_bottleneck

#: Relative tolerance on steady-state windows and goodputs.  The packet
#: sawtooth oscillates around the fluid equilibrium by ~1/(2 beta) and
#: discretizes to whole segments; 0.25 holds on every golden cell with
#: margin while a beta-factor error (2x) or an off-by-one-flow share
#: still fails.
WINDOW_RTOL = 0.25

#: Absolute tolerance (packets) on steady-state queue occupancy.  The
#: marking knee is ~2 packets wide and the packet queue jitters by a
#: few packets around it.
QUEUE_ATOL_PACKETS = 6.0

#: Relative tolerance on mean per-flow goodput in the fat tree.  Wider
#: than WINDOW_RTOL: the packet permutation adds slow start, finite
#: flow sizes and stochastic ECMP collisions the fluid limit averages
#: away.
GOODPUT_RTOL = 0.40

#: Tail fraction both sides average over for "steady state".
TAIL_FRACTION = 0.4


@dataclass(frozen=True)
class CrossCheck:
    """One fluid-vs-packet comparison."""

    name: str
    fluid: float
    packet: float
    tolerance: float
    mode: str  # "relative" or "absolute"

    @property
    def error(self) -> float:
        if self.mode == "relative":
            scale = max(abs(self.packet), 1e-12)
            return abs(self.fluid - self.packet) / scale
        return abs(self.fluid - self.packet)

    @property
    def ok(self) -> bool:
        return self.error <= self.tolerance

    def format(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return (
            f"{self.name:<40} fluid {self.fluid:>12.3f}  "
            f"packet {self.packet:>12.3f}  err {self.error:>7.3f} "
            f"(tol {self.tolerance}, {self.mode})  {status}"
        )


def crosscheck_bottleneck(
    scheme: str = "xmp",
    flows: int = 4,
    duration: Seconds = seconds(0.3),
    bottleneck_rate_bps: BitsPerSecond = gigabits_per_second(1),
    base_rtt: Seconds = microseconds(225),
    marking_threshold: int = 10,
    queue_capacity: int = 100,
    beta: float = 4.0,
) -> List[CrossCheck]:
    """Fig. 1 dumbbell: windows, bottleneck queue and goodput, both ways."""
    # -- packet side ---------------------------------------------------
    net = build_single_bottleneck(
        num_pairs=flows,
        bottleneck_rate_bps=bottleneck_rate_bps,
        rtt=base_rtt,
        queue_capacity=queue_capacity,
        marking_threshold=marking_threshold,
    )
    connections = [
        MptcpConnection(
            net,
            f"S{i}",
            f"D{i}",
            [net.flow_path(i)],
            scheme=scheme,
            beta=beta,
        )
        for i in range(flows)
    ]
    for connection in connections:
        connection.start()
    sample_interval = duration / 300.0
    cwnd_sampler = SeriesSampler(net.sim, sample_interval, until=duration)
    for i, connection in enumerate(connections):
        sender = connection.subflows[0].sender
        cwnd_sampler.watch(f"flow{i}", lambda sender=sender: sender.cwnd)
    cwnd_sampler.start(sample_interval)
    queue_monitor = QueueMonitor(
        net.sim, [net.forward_bottleneck], sample_interval, until=duration
    )
    queue_monitor.start(sample_interval)
    net.sim.run(until=duration)

    packet_windows = [
        cwnd_sampler.series.tail_mean(f"flow{i}", TAIL_FRACTION)
        for i in range(flows)
    ]
    packet_queue = queue_monitor.series.tail_mean(
        net.forward_bottleneck.name, TAIL_FRACTION
    )
    packet_goodputs = [
        connection.goodput_bps() for connection in connections
    ]

    # -- fluid side ----------------------------------------------------
    fluid, fluid_goodputs = _fluid_steady_state(
        FluidScenario(
            scheme=scheme,
            topology="bottleneck",
            flows=flows,
            subflows=1,
            duration=duration,
            beta=beta,
            link_rate_bps=bottleneck_rate_bps,
            base_rtt=base_rtt,
            marking_threshold=marking_threshold,
            queue_capacity=queue_capacity,
        )
    )
    fluid_windows = fluid.steady_state_windows(TAIL_FRACTION)
    fluid_queue = fluid.queues.tail_mean(
        fluid.link_names.index(net.forward_bottleneck.name), TAIL_FRACTION
    )

    mean = lambda values: sum(values) / len(values)  # noqa: E731
    return [
        CrossCheck(
            name=f"bottleneck/{scheme}/window",
            fluid=mean(fluid_windows),
            packet=mean(packet_windows),
            tolerance=WINDOW_RTOL,
            mode="relative",
        ),
        CrossCheck(
            name=f"bottleneck/{scheme}/queue",
            fluid=fluid_queue,
            packet=packet_queue,
            tolerance=QUEUE_ATOL_PACKETS,
            mode="absolute",
        ),
        CrossCheck(
            name=f"bottleneck/{scheme}/goodput",
            fluid=mean(fluid_goodputs),
            packet=mean(packet_goodputs),
            tolerance=WINDOW_RTOL,
            mode="relative",
        ),
    ]


def crosscheck_fattree(
    scheme: str = "xmp",
    subflows: int = 2,
    k: int = 4,
    duration: Seconds = seconds(0.3),
    seed: int = 1,
) -> List[CrossCheck]:
    """Table 1's permutation cell: mean per-flow goodput, k=4 fat tree."""
    from repro.experiments.fattree_eval import (
        FatTreeScenario,
        _simulate as _simulate_fattree,
    )

    packet = _simulate_fattree(
        FatTreeScenario(
            scheme=scheme,
            subflows=subflows,
            pattern="permutation",
            k=k,
            duration=duration,
            seed=seed,
        )
    )
    num_hosts = k ** 3 // 4
    _, goodputs = _fluid_steady_state(
        FluidScenario(
            scheme=scheme,
            topology="fattree",
            flows=num_hosts,
            subflows=subflows,
            duration=duration,
            k=k,
            seed=seed,
        )
    )
    return [
        CrossCheck(
            name=f"fattree-k{k}/{scheme}-{subflows}/goodput",
            fluid=sum(goodputs) / len(goodputs),
            packet=packet.mean_goodput_bps(),
            tolerance=GOODPUT_RTOL,
            mode="relative",
        ),
    ]


def _fluid_steady_state(
    scenario: FluidScenario,
) -> Tuple[FluidTrajectory, List[float]]:
    """One fluid cell's trajectory and per-flow goodputs over
    :data:`TAIL_FRACTION`, a wider tail than a cached fluid result keeps."""
    model = _build_model(scenario)
    trajectory = integrate_model(model, **_solver_args(scenario))
    goodputs = flow_goodputs_bps(
        trajectory.steady_state_rates(TAIL_FRACTION),
        model.flow_of,
        model.num_flows,
    )
    return trajectory, goodputs


def run_crosschecks(
    topology: str = "all",
    duration: Optional[Seconds] = None,
) -> List[CrossCheck]:
    """The cross-validation matrix the CLI and smoke checks run.

    ``topology`` selects "bottleneck", "fattree" or "all"; ``duration``
    shortens both sides uniformly (smoke mode) when given.
    """
    checks: List[CrossCheck] = []
    if topology in ("bottleneck", "all"):
        kwargs = {} if duration is None else {"duration": duration}
        for scheme in ("xmp", "dctcp"):
            checks.extend(crosscheck_bottleneck(scheme=scheme, **kwargs))
    if topology in ("fattree", "all"):
        kwargs = {} if duration is None else {"duration": duration}
        checks.extend(crosscheck_fattree(**kwargs))
    if topology not in ("bottleneck", "fattree", "all"):
        raise ValueError(f"unknown crosscheck topology {topology!r}")
    return checks


__all__ = [
    "GOODPUT_RTOL",
    "QUEUE_ATOL_PACKETS",
    "TAIL_FRACTION",
    "WINDOW_RTOL",
    "CrossCheck",
    "crosscheck_bottleneck",
    "crosscheck_fattree",
    "run_crosschecks",
]

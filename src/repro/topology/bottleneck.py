"""Single-bottleneck topology: N sources, N sinks, one shared link.

Used by the Fig. 1 convergence/fairness study (4 flows, 1 Gbps, RTT
225 µs) and the Fig. 3(b)/Fig. 6 fairness experiment (4 flows with
different subflow counts, 300 Mbps, RTT 1.8 ms).  Given one RTT per
pair it is the dumbbell of RTT-fairness studies: window-based AIMD
favours short-RTT flows, BOS's once-per-round growth inherits that
bias, and multipath RTT mismatch makes it relevant to XMP.

Geometry::

    S0 ─┐                   ┌─ D0
    S1 ─┤                   ├─ D1
        ├─ SWL ══════ SWR ──┤
    ...                      ...

Access links run at ten times the bottleneck rate with deep DropTail
queues so that marking and queueing happen only at the bottleneck; the
round-trip propagation time is split so each pair's no-load RTT matches
the requested value.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.net.network import Network
from repro.net.queue import DropTailQueue, ThresholdECNQueue
from repro.net.routing import Path
from repro.sim.units import Seconds

#: Packets each access-link queue holds: deep enough never to drop.
ACCESS_QUEUE_CAPACITY = 1000


class BottleneckNetwork(Network):
    """A :class:`Network` with its shared bottleneck link attached."""

    def __init__(self) -> None:
        super().__init__()
        self.forward_bottleneck = None
        self.backward_bottleneck = None

    def flow_path(self, index: int) -> Path:
        """The unique path from source ``S{index}`` to sink ``D{index}``."""
        paths = self.paths(f"S{index}", f"D{index}")
        if not paths:
            raise RuntimeError(f"no path for pair {index}")
        return paths[0]


def build_single_bottleneck(
    num_pairs: int = 4,
    bottleneck_rate_bps: float = 1e9,
    rtt: Union[Seconds, Sequence[Seconds]] = 225e-6,
    queue_capacity: int = 100,
    marking_threshold: Optional[int] = 10,
) -> BottleneckNetwork:
    """Build the topology; ``marking_threshold=None`` makes it pure DropTail.

    ``rtt`` is every pair's no-load RTT, or a sequence of ``num_pairs``
    per-pair RTTs.  The bottleneck carries a third of the smallest
    pair's one-way budget; each pair's two access links split the rest
    of its own, so with equal RTTs every hop is exactly ``rtt / 6``.

    The bottleneck queue in each direction is a
    :class:`~repro.net.queue.ThresholdECNQueue` with the given K (the
    paper's packet-marking rule); access links never mark.
    """
    if num_pairs < 1:
        raise ValueError(f"need at least one pair, got {num_pairs}")
    rtts = [rtt] * num_pairs if isinstance(rtt, (int, float)) else list(rtt)
    if len(rtts) != num_pairs:
        raise ValueError(f"{num_pairs} pairs need {num_pairs} RTTs, got {len(rtts)}")
    if any(pair_rtt <= 0 for pair_rtt in rtts):
        raise ValueError(f"rtt must be positive, got {rtt}")
    net = BottleneckNetwork()

    left = net.add_switch("SWL")
    right = net.add_switch("SWR")

    # One-way propagation budget rtt/2 over three hops: the smallest
    # budget split equally, the excess of each pair on its access hops.
    min_rtt = min(rtts)
    hop_delay = min_rtt / 6.0
    access_rate = bottleneck_rate_bps * 10.0

    def bottleneck_queue() -> DropTailQueue:
        if marking_threshold is None:
            return DropTailQueue(queue_capacity)
        return ThresholdECNQueue(queue_capacity, marking_threshold)

    net.forward_bottleneck, net.backward_bottleneck = net.connect(
        left, right, bottleneck_rate_bps, hop_delay,
        queue_factory=bottleneck_queue, layer="bottleneck",
    )

    def access_queue() -> DropTailQueue:
        return DropTailQueue(ACCESS_QUEUE_CAPACITY)

    for index, pair_rtt in enumerate(rtts):
        access_delay = hop_delay + (pair_rtt - min_rtt) / 4.0
        source = net.add_host(f"S{index}")
        sink = net.add_host(f"D{index}")
        net.connect(source, left, access_rate, access_delay,
                    queue_factory=access_queue, layer="access")
        net.connect(right, sink, access_rate, access_delay,
                    queue_factory=access_queue, layer="access")
    return net


__all__ = ["ACCESS_QUEUE_CAPACITY", "BottleneckNetwork", "build_single_bottleneck"]

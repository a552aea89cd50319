"""The Fig. 3(a) traffic-shifting testbed.

Two independent 300 Mbps bottlenecks (the paper's DummyNet boxes DN1 and
DN2).  Flow 1 crosses DN1, Flow 3 crosses DN2, and Flow 2 is multihomed —
one subflow over each bottleneck.  A background host pair sits on each
bottleneck for the 10-20 s / 20-30 s perturbations of Fig. 4.

Geometry (forward direction)::

    S1 ──┐                      ┌── D1
    S2 ──┤ A1 ═══ 300M ═══ B1 ──┤── D2
    BG1 ─┘                      └── BGD1
    S2 ──┐                      ┌── D2
    S3 ──┤ A2 ═══ 300M ═══ B2 ──┤── D3
    BG2 ─┘                      └── BGD2

(S2 and D2 attach to both sides — the multihoming.)
"""

from __future__ import annotations

from repro.net.network import Network
from repro.net.queue import DropTailQueue, ThresholdECNQueue
from repro.sim.units import BitsPerSecond, Seconds, gigabits_per_second


def build_shifting_testbed(
    bottleneck_rate_bps: BitsPerSecond = 300e6,
    rtt: Seconds = 1.8e-3,
    queue_capacity: int = 100,
    marking_threshold: int = 15,
) -> Network:
    """Build the testbed with the paper's §4 parameters as defaults.

    300 Mbps bottlenecks, 1.8 ms average RTT (BDP ≈ 45 packets), K = 15,
    100-packet queues.  The bottleneck links are ``A1->B1`` (DN1) and
    ``A2->B2`` (DN2).
    """
    net = Network()

    hop_delay = rtt / 6.0
    access_rate = gigabits_per_second(1)

    def bottleneck_queue() -> DropTailQueue:
        return ThresholdECNQueue(queue_capacity, marking_threshold)

    def access_queue() -> DropTailQueue:
        return DropTailQueue(1000)

    switches = {}
    for i in (1, 2):
        switches[f"A{i}"] = net.add_switch(f"A{i}")
        switches[f"B{i}"] = net.add_switch(f"B{i}")
        net.connect(
            switches[f"A{i}"], switches[f"B{i}"], bottleneck_rate_bps,
            hop_delay, queue_factory=bottleneck_queue, layer="bottleneck",
        )

    def attach(host_name: str, switch_name: str) -> None:
        host = net.hosts.get(host_name) or net.add_host(host_name)
        net.connect(host, switches[switch_name], access_rate, hop_delay,
                    queue_factory=access_queue, layer="access")

    attach("S1", "A1")
    attach("D1", "B1")
    attach("S3", "A2")
    attach("D3", "B2")
    attach("S2", "A1")
    attach("S2", "A2")
    attach("D2", "B1")
    attach("D2", "B2")
    attach("BG1", "A1")
    attach("BGD1", "B1")
    attach("BG2", "A2")
    attach("BGD2", "B2")
    return net


__all__ = ["build_shifting_testbed"]

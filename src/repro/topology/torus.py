"""The Fig. 5 torus: a ring of five bottlenecks for rate compensation.

Bottleneck links L1..L5 have capacities 0.8, 1.2, 2, 1.5 and 0.5 Gbps.
Flow *i* (1-based) has two subflows: one across L_i, one across L_{i+1}
(wrapping), so every bottleneck is shared by two neighbouring flows —
which is what lets a congestion event on L3 ripple around the ring
("attenuated Dominos").  Four background host pairs sit on L3 for the
25-45 s perturbation, and L3 itself can be taken down (the 60 s event).
"""

from __future__ import annotations

from typing import Sequence

from repro.net.network import Network
from repro.net.queue import DropTailQueue, ThresholdECNQueue
from repro.sim.units import Seconds, gigabits_per_second

#: The paper's bottleneck capacities, left to right, bits/second.
DEFAULT_CAPACITIES = (0.8e9, 1.2e9, 2.0e9, 1.5e9, 0.5e9)


def build_torus(
    capacities: Sequence[float] = DEFAULT_CAPACITIES,
    rtt: Seconds = 350e-6,
    queue_capacity: int = 100,
    marking_threshold: int = 20,
    num_background: int = 4,
) -> Network:
    """Build the torus with the paper's §5.1 parameters as defaults.

    Every path's no-load RTT is ``rtt`` (350 µs in the paper, giving BDPs
    between 15 and 60 packets across the five capacities).  L{i} is the
    link ``A{i}->B{i}``; S{i} reaches D{i} across L{i} and L{i+1}.
    """
    if len(capacities) < 2:
        raise ValueError("need at least two bottlenecks")
    net = Network()

    hop_delay = rtt / 6.0
    access_rate = gigabits_per_second(10)

    def marking_queue() -> DropTailQueue:
        return ThresholdECNQueue(queue_capacity, marking_threshold)

    def access_queue() -> DropTailQueue:
        return DropTailQueue(1000)

    heads = []
    tails = []
    for i, capacity in enumerate(capacities, start=1):
        head = net.add_switch(f"A{i}")
        tail = net.add_switch(f"B{i}")
        net.connect(head, tail, capacity, hop_delay,
                    queue_factory=marking_queue, layer="bottleneck")
        heads.append(head)
        tails.append(tail)

    n = len(capacities)
    for i in range(1, n + 1):
        src = net.add_host(f"S{i}")
        dst = net.add_host(f"D{i}")
        # Subflow 1 via L_i, subflow 2 via L_{i+1} (wrapping).
        for j in (i, i % n + 1):
            net.connect(src, heads[j - 1], access_rate, hop_delay,
                        queue_factory=access_queue, layer="access")
            net.connect(tails[j - 1], dst, access_rate, hop_delay,
                        queue_factory=access_queue, layer="access")

    l3_head = heads[2] if n >= 3 else heads[0]
    l3_tail = tails[2] if n >= 3 else tails[0]
    for b in range(1, num_background + 1):
        src = net.add_host(f"BG{b}")
        dst = net.add_host(f"BGD{b}")
        net.connect(src, l3_head, access_rate, hop_delay,
                    queue_factory=access_queue, layer="access")
        net.connect(l3_tail, dst, access_rate, hop_delay,
                    queue_factory=access_queue, layer="access")
    return net


__all__ = ["build_torus", "DEFAULT_CAPACITIES"]

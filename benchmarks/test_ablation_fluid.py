"""Ablation: fluid model (Eq. 2) vs the packet-level simulator.

The paper derives BOS from the window ODE of Eq. 2 and its equilibrium
Eq. 3.  This bench integrates that fluid model for N flows on a marked
1 Gbps link and compares steady-state windows, queue and aggregate rate
against the packet simulator configured identically — the strongest
internal-consistency check the reproduction has.
"""

import pytest

from _bench_common import emit

from repro import fluid
from repro.metrics.collector import QueueMonitor
from repro.mptcp.connection import MptcpConnection
from repro.topology.bottleneck import build_single_bottleneck

CAPACITY = 1e9
BASE_RTT = 225e-6
THRESHOLD = 10
FLOW_COUNTS = (1, 2, 4)


def packet_run(num_flows: int):
    net = build_single_bottleneck(
        num_pairs=num_flows, bottleneck_rate_bps=CAPACITY, rtt=BASE_RTT,
        marking_threshold=THRESHOLD,
    )
    monitor = QueueMonitor(net.sim, [net.forward_bottleneck], 0.001)
    monitor.start()
    connections = []
    for i in range(num_flows):
        conn = MptcpConnection(net, f"S{i}", f"D{i}", [net.flow_path(i)],
                               scheme="xmp")
        conn.start()
        connections.append(conn)
    net.sim.run(until=0.3)
    windows = [c.subflows[0].sender.cwnd for c in connections]
    queue = monitor.series.mean(net.forward_bottleneck.name)
    return windows, queue


def test_ablation_fluid_vs_packet(once):
    def compare():
        rows = []
        for n in FLOW_COUNTS:
            fluid_result = fluid.integrate_shared_link(
                num_flows=n, capacity_bps=CAPACITY, base_rtt=BASE_RTT,
                threshold=THRESHOLD, duration=0.25,
            )
            fluid_w = sum(fluid_result.steady_state_windows()) / n
            (fluid_q,) = fluid_result.steady_state_queues()
            packet_w_list, packet_q = packet_run(n)
            packet_w = sum(packet_w_list) / n
            rows.append((n, fluid_w, packet_w, fluid_q, packet_q))
        return rows

    rows = once(compare)
    lines = ["flows   fluid w   packet w   fluid q   packet q"]
    for n, fw, pw, fq, pq in rows:
        lines.append(f"{n:5d} {fw:9.1f} {pw:10.1f} {fq:9.1f} {pq:10.1f}")
    emit("ablation_fluid_vs_packet", "\n".join(lines))

    for n, fluid_w, packet_w, fluid_q, packet_q in rows:
        # Mean windows within ~60% (the packet system is a sawtooth the
        # fluid limit averages out), queues within a handful of packets.
        assert packet_w == pytest.approx(fluid_w, rel=0.6)
        assert abs(packet_q - fluid_q) < 8

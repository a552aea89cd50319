#!/usr/bin/env python3
"""The paper's fluid model (Eq. 2) against the packet-level simulator.

Integrates the BOS window ODE for N flows sharing a marked 1 Gbps link
and runs the identical scenario packet by packet, printing steady-state
windows and queue side by side — the internal-consistency check that the
implementation sits where the paper's own analysis says it should.

Run:  python examples/model_vs_simulator.py
"""

from repro import fluid
from repro.core.utility import equilibrium_window
from repro.metrics.collector import QueueMonitor
from repro.mptcp.connection import MptcpConnection
from repro.topology.bottleneck import build_single_bottleneck

CAPACITY = 1e9
BASE_RTT = 225e-6
K = 10


def packet_run(num_flows):
    net = build_single_bottleneck(
        num_pairs=num_flows, bottleneck_rate_bps=CAPACITY, rtt=BASE_RTT,
        marking_threshold=K,
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
    return sum(windows) / num_flows, monitor.series.mean(
        net.forward_bottleneck.name
    )


def main() -> None:
    print(f"{'flows':>6} {'fluid w':>9} {'packet w':>9} "
          f"{'fluid q':>9} {'packet q':>9}")
    for n in (1, 2, 4, 8):
        model = fluid.integrate_shared_link(
            num_flows=n, capacity_bps=CAPACITY, base_rtt=BASE_RTT,
            threshold=K, duration=0.25,
        )
        fluid_w = sum(model.steady_state_windows()) / n
        (fluid_q,) = model.steady_state_queues()
        packet_w, packet_q = packet_run(n)
        print(f"{n:6d} {fluid_w:9.1f} {packet_w:9.1f} "
              f"{fluid_q:9.1f} {packet_q:9.1f}")
    print(
        "\nEq. 3 cross-check: at marking probability p the model's window"
        "\nfixed point is delta*beta*(1-p)/p; e.g. p=0.2 ->"
        f" {equilibrium_window(0.2, 1.0, 4.0):.0f} packets."
    )


if __name__ == "__main__":
    main()

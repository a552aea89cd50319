#!/usr/bin/env python3
"""Sweep XMP's two knobs — beta and the marking threshold K.

Eq. 1 of the paper ties them together: to keep a link busy through a
1/beta window cut, K must be at least BDP/(beta-1).  This sweep runs one
XMP flow on a 1 Gbps bottleneck for each (beta, K) pair and prints
utilization and mean queue depth, showing the trade-off the paper
describes: larger beta permits a smaller K (lower latency) but cuts less
per mark (slower convergence), and K below the Eq. 1 bound costs
throughput.

Run:  python examples/parameter_tuning.py
"""

from repro.core.analysis import predict_sawtooth
from repro.core.utility import min_marking_threshold
from repro.metrics.collector import QueueMonitor
from repro.mptcp.connection import MptcpConnection
from repro.sim.units import bandwidth_delay_product_packets, transmission_delay
from repro.topology.bottleneck import build_single_bottleneck

RATE = 1e9
RTT = 225e-6
DURATION = 1.0


def run_cell(beta: float, threshold: int) -> tuple:
    net = build_single_bottleneck(
        num_pairs=1,
        bottleneck_rate_bps=RATE,
        rtt=RTT,
        marking_threshold=threshold,
    )
    connection = MptcpConnection(
        net, "S0", "D0", [net.flow_path(0)], scheme="xmp", beta=beta
    )
    monitor = QueueMonitor(net.sim, [net.forward_bottleneck], interval=0.001)
    monitor.start()
    connection.start()
    net.sim.run(until=DURATION)
    name = net.forward_bottleneck.name
    utilization = net.forward_bottleneck.utilization(DURATION)
    occupancy = monitor.series
    return utilization, occupancy.mean(name), int(max(occupancy[name]))


def main() -> None:
    bdp = bandwidth_delay_product_packets(RATE, RTT)
    print(f"bottleneck BDP: {bdp:.1f} packets  (1 Gbps x {RTT * 1e6:.0f} us)")
    per_packet = transmission_delay(1500, RATE)
    print(f"each queued 1500 B packet adds {per_packet * 1e6:.0f} us of RTT")
    print(f"{'beta':>5} {'K':>4} {'Eq.1 min K':>10} {'util':>7} {'pred':>6} "
          f"{'mean q':>7} {'pred':>6} {'max q':>6}")
    for beta in (2.0, 3.0, 4.0, 5.0, 6.0):
        bound = min_marking_threshold(bdp, beta)
        for threshold in (2, 5, 10, 20):
            utilization, mean_q, max_q = run_cell(beta, threshold)
            model = predict_sawtooth(bdp, threshold, beta)
            flag = "" if threshold >= bound else "   <- K below Eq.1 bound"
            print(
                f"{beta:5.0f} {threshold:4d} {bound:10.1f} {utilization:7.3f} "
                f"{model.utilization:6.3f} {mean_q:7.1f} "
                f"{model.mean_queue_packets:6.1f} {max_q:6d}{flag}"
            )
    print("\n'pred' columns: the closed-form sawtooth model "
          "(repro.core.analysis), no simulation involved.")


if __name__ == "__main__":
    main()

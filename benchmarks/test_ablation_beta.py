"""Ablation: the beta/K trade-off (paper Eq. 1 and §2.1).

For beta in 2..6 we run one XMP flow at (a) the Eq.-1-derived minimum K
and (b) a deliberately too-small K, recording utilization and mean queue.
The claims: at the Eq. 1 bound the link stays busy; below it throughput
drops; larger beta admits a smaller K and hence lower queueing delay.
"""

import math

from _bench_common import emit

from repro.core.utility import min_marking_threshold
from repro.metrics.collector import QueueMonitor
from repro.mptcp.connection import MptcpConnection
from repro.sim.units import bandwidth_delay_product_packets
from repro.topology.bottleneck import build_single_bottleneck

RATE = 1e9
RTT = 225e-6
DURATION = 0.4
BETAS = (2.0, 3.0, 4.0, 5.0, 6.0)


def run_cell(beta: float, threshold: int):
    net = build_single_bottleneck(
        num_pairs=1, bottleneck_rate_bps=RATE, rtt=RTT,
        marking_threshold=threshold,
    )
    monitor = QueueMonitor(net.sim, [net.forward_bottleneck], 0.001)
    monitor.start()
    MptcpConnection(net, "S0", "D0", [net.flow_path(0)],
                    scheme="xmp", beta=beta).start()
    net.sim.run(until=DURATION)
    return (
        net.forward_bottleneck.utilization(DURATION),
        monitor.series.mean(net.forward_bottleneck.name),
    )


def test_ablation_beta_k(once):
    def sweep():
        bdp = bandwidth_delay_product_packets(RATE, RTT)
        rows = []
        for beta in BETAS:
            bound = int(math.ceil(min_marking_threshold(bdp, beta)))
            at_bound = run_cell(beta, bound + 1)
            below = run_cell(beta, max(1, bound // 4))
            rows.append((beta, bound, at_bound, below))
        return rows

    rows = once(sweep)
    lines = ["beta   Eq1-K   util@K    q@K   util@K/4   q@K/4"]
    for beta, bound, (u1, q1), (u2, q2) in rows:
        lines.append(
            f"{beta:4.0f} {bound:6d} {u1:9.3f} {q1:6.1f} {u2:10.3f} {q2:7.1f}"
        )
    emit("ablation_beta_k", "\n".join(lines))

    for beta, bound, (util_at, queue_at), (util_below, _) in rows:
        assert util_at > 0.9, f"beta={beta} under-utilized at the Eq.1 bound"
        assert util_below < util_at, f"beta={beta}: tiny K should cost throughput"
    # Larger beta -> smaller bound -> lower queueing delay at the bound.
    queue_means = [q for _, _, (_, q), _ in rows]
    assert queue_means[-1] < queue_means[0]

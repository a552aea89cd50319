"""Ablation: instantaneous-threshold marking vs RED/EWMA (paper §2.1).

The paper argues the averaged queue is the wrong congestion metric for
DCNs: with ultra-low RTTs and low statistical multiplexing, the EWMA lags
the bursts that actually fill buffers.  We run the same two XMP flows
over (a) the paper's threshold rule, (b) RED with a slow EWMA and the
classic 5/15 thresholds, and compare buffer occupancy and drops.
"""

import random

from _bench_common import emit

from repro.metrics.collector import QueueMonitor
from repro.mptcp.connection import MptcpConnection
from repro.net.queue import REDQueue
from repro.topology.bottleneck import build_single_bottleneck

DURATION = 0.4


def run_variant(queue_mode: str):
    net = build_single_bottleneck(num_pairs=2, marking_threshold=10)
    if queue_mode == "red":
        for link in net.links_by_layer("bottleneck"):
            link.queue = REDQueue(
                capacity=100, min_threshold=5, max_threshold=15,
                max_probability=0.1, weight=0.002, rng=random.Random(7),
            )
    monitor = QueueMonitor(net.sim, [net.forward_bottleneck], 0.0005)
    monitor.start()
    for i in range(2):
        MptcpConnection(
            net, f"S{i}", f"D{i}", [net.flow_path(i)], scheme="xmp"
        ).start()
    net.sim.run(until=DURATION)
    name = net.forward_bottleneck.name
    return {
        "mean_queue": monitor.series.mean(name),
        "max_queue": int(max(monitor.series[name])),
        "drops": net.total_dropped(),
        "marks": net.total_marked(),
        "utilization": net.forward_bottleneck.utilization(DURATION),
    }


def test_ablation_marking(once):
    def run_both():
        return run_variant("threshold"), run_variant("red")

    threshold, red = once(run_both)
    lines = ["Marking-rule ablation (two XMP flows, 1 Gbps bottleneck):"]
    for name, stats in (("threshold K=10", threshold), ("RED/EWMA 5/15", red)):
        lines.append(
            f"  {name:<16} mean_q={stats['mean_queue']:6.1f}  "
            f"max_q={stats['max_queue']:3d}  drops={stats['drops']:4d}  "
            f"marks={stats['marks']:5d}  util={stats['utilization']:.3f}"
        )
    emit("ablation_marking", "\n".join(lines))

    # The instantaneous rule keeps the queue pinned near K; the lagging
    # average lets it ride far higher (and with DropTail-style dynamics,
    # reach for the buffer cap).
    assert threshold["mean_queue"] < red["mean_queue"]
    assert threshold["max_queue"] < red["max_queue"]
    assert threshold["drops"] == 0

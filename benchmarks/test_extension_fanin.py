"""Extension: incast fan-in sweep.

The paper fixes jobs at 8 servers; this extension sweeps the fan-in to
locate the incast cliff — the fan-in at which the synchronized response
burst overflows the client port's free buffer (queue capacity minus the
~K packets the marked bulk flows occupy) and JCTs jump by RTOmin.  It
exercises the same machinery as Fig. 9 along the axis the incast
literature (Vasudevan et al.) cares about.
"""

import random

from _bench_common import emit

from repro.metrics.stats import percentile
from repro.topology.fattree import build_fattree
from repro.traffic.factory import TransferFactory
from repro.workloads.partition_aggregate import PartitionAggregatePattern

FAN_INS = (2, 4, 8, 12)
DURATION = 1.0


def run_fanin(servers: int):
    net = build_fattree(k=4)
    factory = TransferFactory(net, "tcp", rng=random.Random(21))
    pattern = PartitionAggregatePattern(
        factory, factory, net.host_names, fan_in=servers,
        concurrent_jobs=4, rng=random.Random(22),
    )
    pattern.start()
    net.sim.run(until=DURATION)
    jcts = pattern.completion_times()
    return jcts, net.total_dropped()


def test_extension_fanin_sweep(once):
    def sweep():
        return {servers: run_fanin(servers) for servers in FAN_INS}

    results = once(sweep)
    lines = ["Incast fan-in sweep (no background load, 4 concurrent jobs):",
             f"  {'fan-in':>7} {'jobs':>5} {'p50 (ms)':>9} {'p90 (ms)':>9} "
             f"{'collapsed':>10} {'drops':>6}"]
    collapse_fraction = {}
    for servers, (jcts, drops) in results.items():
        collapsed = sum(1 for jct in jcts if jct > 0.18)
        collapse_fraction[servers] = collapsed / len(jcts) if jcts else 1.0
        lines.append(
            f"  {servers:>7} {len(jcts):>5} "
            f"{percentile(jcts, 50) * 1e3:>9.1f} "
            f"{percentile(jcts, 90) * 1e3:>9.1f} "
            f"{collapsed:>10} {drops:>6}"
        )
    emit("extension_fanin", "\n".join(lines))

    # Small fan-in: bursts fit the buffer, almost no collapses; collapse
    # probability grows with fan-in.
    assert collapse_fraction[2] < 0.2
    assert collapse_fraction[12] >= collapse_fraction[2]

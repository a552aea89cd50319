"""Ablation: TraSh coupling on vs off.

Two properties separate XMP (BOS + TraSh) from uncoupled BOS subflows:

* fairness — an uncoupled 3-subflow flow takes ~3 shares of a shared
  bottleneck, a coupled one takes ~1 (Fig. 6's point);
* shifting — without the delta coupling, subflows keep pushing into a
  congested path instead of moving traffic to the clean one (Fig. 4's
  point).
"""

from _bench_common import emit

from repro.experiments.catalog import run
from repro.experiments.fig4_traffic_shifting import Fig4Config
from repro.mptcp.connection import MptcpConnection
from repro.topology.bottleneck import build_single_bottleneck

DURATION = 0.4


def fairness_ratio(scheme: str) -> float:
    """Bytes(3-subflow flow) / bytes(1-subflow flow) on one bottleneck."""
    net = build_single_bottleneck(num_pairs=2, marking_threshold=10)
    multi = MptcpConnection(
        net, "S0", "D0", [net.flow_path(0)] * 3, scheme=scheme
    )
    single = MptcpConnection(net, "S1", "D1", [net.flow_path(1)], scheme=scheme)
    multi.start()
    single.start()
    net.sim.run(until=DURATION)
    return multi.delivered_bytes / max(single.delivered_bytes, 1)


def test_ablation_coupling(once):
    def run_all():
        coupled = fairness_ratio("xmp")
        uncoupled = fairness_ratio("bos-uncoupled")
        shift_coupled = run("fig4", Fig4Config(scheme="xmp", time_scale=0.1))
        return coupled, uncoupled, shift_coupled

    coupled, uncoupled, shift = once(run_all)
    phases = shift.phases()
    baseline = shift.mean_normalized("flow2-1", *phases["baseline"])
    congested = shift.mean_normalized("flow2-1", *phases["bg_on_dn1"])
    lines = [
        "TraSh coupling ablation:",
        f"  3-subflow vs 1-subflow share, coupled (XMP):      {coupled:.2f}x",
        f"  3-subflow vs 1-subflow share, uncoupled BOS:      {uncoupled:.2f}x",
        f"  XMP subflow-1 rate before/after congestion:       "
        f"{baseline:.3f} -> {congested:.3f}",
    ]
    emit("ablation_coupling", "\n".join(lines))

    # Coupled: close to one share. Uncoupled: close to three.
    assert coupled < 1.7
    assert uncoupled > 2.0
    # And the coupled flow genuinely shifts away from congestion.
    assert congested < 0.7 * baseline

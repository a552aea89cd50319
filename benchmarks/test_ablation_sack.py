"""Ablation: SACK on loss-driven schemes.

The paper's LIA/TCP numbers come from a Linux stack (SACK on) while our
default stack is SACK-less NewReno; this ablation quantifies how much of
the loss-recovery penalty that difference accounts for by re-running the
Random-pattern LIA-2 cell with SACK enabled on the large flows.
"""

import dataclasses
import random

from _bench_common import BENCH_BASE, emit

from repro.mptcp.connection import MptcpConnection
from repro.net.routing import DistinctPathSelector
from repro.topology.fattree import build_fattree
from repro.traffic.factory import TransferFactory
from repro.traffic.random_pattern import RandomPattern


def run_random_lia(sack: bool, duration: float = 0.4):
    """A Random-pattern LIA-2 run with SACK toggled on the large flows."""
    net = build_fattree(k=BENCH_BASE.k)
    factory = TransferFactory(
        net, "lia", subflow_count=2, rng=random.Random(11), label="LIA-2"
    )
    if sack:
        # Route transfer creation through a thin wrapper flipping SACK on.
        def launch_with_sack(src, dst, size_bytes, on_complete=None):
            paths = net.paths(src, dst)
            selector = DistinctPathSelector(factory.rng)
            chosen = selector.select(paths, 0, factory.subflow_count)
            conn = MptcpConnection(
                net, src, dst, chosen, scheme="lia",
                size_bytes=size_bytes, sack=True,
            )
            conn.on_complete = lambda c, now: _finish(c, now, src, dst,
                                                      size_bytes, on_complete)
            factory.active[conn.flow_id] = conn
            conn.start()
            return conn

        def _finish(conn, now, src, dst, size_bytes, on_complete):
            from repro.metrics.goodput import FlowRecord

            record = FlowRecord(
                conn.flow_id, "LIA-2", src, dst,
                factory.category(src, dst), size_bytes,
                conn.start_time or 0.0, now, conn.delivered_bytes,
            )
            factory.records.append(record)
            factory.active.pop(conn.flow_id, None)
            if on_complete is not None:
                on_complete(record)

        factory.launch = launch_with_sack

    pattern = RandomPattern(
        factory, net.host_names,
        mean_bytes=BENCH_BASE.random_mean, max_bytes=BENCH_BASE.random_max,
        rng=random.Random(12),
    )
    pattern.start()
    net.sim.run(until=duration)
    records = factory.all_records(duration)
    if not records:
        return 0.0, net.total_dropped()
    mean_goodput = sum(r.goodput_bps(duration) for r in records) / len(records)
    return mean_goodput / 1e6, net.total_dropped()


def test_ablation_sack(once):
    def run_both():
        return run_random_lia(sack=False), run_random_lia(sack=True)

    (without, drops_without), (with_sack, drops_with) = once(run_both)
    emit(
        "ablation_sack",
        "LIA-2, Random pattern, mean goodput (Mbps):\n"
        f"  NewReno (no SACK): {without:.1f}   drops={drops_without}\n"
        f"  with SACK:         {with_sack:.1f}   drops={drops_with}\n"
        "(the paper's Linux stack had SACK; our default does not — this\n"
        " bounds how much of LIA's penalty is recovery mechanics rather\n"
        " than its congestion response)",
    )
    # SACK must not hurt, and usually helps a loss-driven scheme.
    assert with_sack >= without * 0.9

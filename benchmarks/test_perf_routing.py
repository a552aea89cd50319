"""Performance microbenchmark of fat-tree path construction and selection.

The set-up the fluid backend pays before it integrates anything: build a
k=16 fat tree (1,024 hosts, 6,144 links) and pin both subflows of each
of 10,240 permutation flows to distinct equal-cost paths — the
``k16_vec`` cell of the ledger's ``fluid_scale`` workload, without the
ODE.  A regression in the link tables or in ``FatTreeNetwork.paths``
shows here first.
"""

import random

from repro.net.routing import DistinctPathSelector
from repro.topology.fattree import build_fattree
from repro.traffic.permutation import random_derangement

FLOWS = 10_240
SUBFLOWS = 2


def test_fattree_k16_path_selection(benchmark):
    """build_fattree(k=16), then distinct paths for 10,240 permutation pairs."""

    def run():
        net = build_fattree(k=16)
        hosts = net.host_names
        rng = random.Random(1)
        pairs = []
        while len(pairs) < FLOWS:
            pairs.extend(zip(hosts, random_derangement(hosts, rng)))
        selector = DistinctPathSelector(random.Random(2))
        return [
            selector.select(net.paths(src, dst), flow, SUBFLOWS)
            for flow, (src, dst) in enumerate(pairs[:FLOWS])
        ]

    chosen = benchmark(run)
    assert sum(len(paths) for paths in chosen) == FLOWS * SUBFLOWS

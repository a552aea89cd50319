"""The k-ary fat tree (Al-Fares et al., SIGCOMM 2008) the paper evaluates in.

For port count ``k`` (even): ``k`` pods; each pod has ``k/2`` edge (rack)
switches and ``k/2`` aggregation switches; ``(k/2)^2`` core switches; each
edge switch hosts ``k/2`` machines.  Between inter-pod hosts there are
``(k/2)^2`` equal-cost paths — the path diversity MPTCP exploits.

The paper's instance is k=8 (128 hosts, 80 switches); our experiments
default to k=4 (16 hosts, 20 switches) for wall-clock reasons, with the
per-link parameters kept at the paper's values: 1 Gbps everywhere, one-way
delays of 20/30/40 µs at the rack/aggregation/core layer (no-load RTTs
between ~80 µs inner-rack and ~360 µs inter-pod plus serialization — the
paper's "105 µs to 435 µs"), marking threshold K=10, queues of 100 packets.

Hosts are named ``h_<pod>_<edge>_<index>``; link layers are tagged
``rack`` / ``aggregation`` / ``core`` for Fig. 11's per-layer utilization.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.link import Link
from repro.net.network import Network
from repro.net.queue import DropTailQueue, ThresholdECNQueue
from repro.net.routing import Path
from repro.sim.units import BitsPerSecond, seconds

#: ``(forward, backward)`` as returned by :meth:`Network.connect`.
LinkPair = Tuple[Link, Link]

#: One-way propagation delay per layer (paper §5.2.1).
RACK_DELAY = seconds(20e-6)
AGGREGATION_DELAY = seconds(30e-6)
CORE_DELAY = seconds(40e-6)


class FatTreeNetwork(Network):
    """Network plus fat-tree metadata (k, host naming, flow categories)."""

    def __init__(self) -> None:
        super().__init__()
        self.k = 0
        self.host_names: List[str] = []
        #: Per-port rate; set by :func:`build_fattree` (paper: 1 Gbps).
        self.link_rate_bps: BitsPerSecond = 0.0
        # Link tables filled by build_fattree, read by _construct_paths:
        # host -> (pod, edge, host<->edge); [pod][edge][agg] edge<->agg;
        # [pod][agg][j] agg<->core_<agg>_<j>.
        self._host_ports: Dict[str, Tuple[int, int, Link, Link]] = {}
        self._edge_agg: List[List[List[LinkPair]]] = []
        self._agg_core: List[List[List[LinkPair]]] = []

    def bisection_bandwidth_bps(self) -> BitsPerSecond:
        """Full bisection bandwidth of the rearrangeably non-blocking tree.

        A k-ary fat tree hosts ``k^3/4`` machines and can carry half of
        them sending full-rate across the bisection: ``(k^3/8) * rate``.
        The workload layer's load calibration
        (:func:`repro.workloads.arrivals.workload_capacity_bps`) doubles
        this back to the aggregate host access bandwidth.
        """
        return (self.k ** 3 / 8.0) * self.link_rate_bps

    @staticmethod
    def parse_host(name: str) -> Tuple[int, int, int]:
        """``h_<pod>_<edge>_<index>`` -> (pod, edge, index)."""
        _, pod, edge, index = name.split("_")
        return int(pod), int(edge), int(index)

    def category(self, src: str, dst: str) -> str:
        """The paper's flow categories (§5.2.2).

        ``inner-rack`` (same edge switch), ``inter-rack`` (same pod,
        different racks) or ``inter-pod``.
        """
        src_pod, src_edge, _ = self.parse_host(src)
        dst_pod, dst_edge, _ = self.parse_host(dst)
        if src_pod != dst_pod:
            return "inter-pod"
        if src_edge != dst_edge:
            return "inter-rack"
        return "inner-rack"

    def same_rack(self, src: str, dst: str) -> bool:
        """Whether two hosts hang off the same edge switch."""
        return self.category(src, dst) == "inner-rack"

    # ------------------------------------------------------------------
    # Combinatorial path construction
    # ------------------------------------------------------------------
    #
    # The generic BFS+DFS in repro.net.routing costs O(V+E) per host
    # pair — ~20 s of setup for 10^4 flows at k=16.  Fat-tree shortest
    # paths are fully determined by the host coordinates, so they are
    # built directly by indexing the link tables build_fattree kept
    # from connect(): no name is formatted and no link is looked up.
    # The construction reproduces the DFS enumeration order *exactly*
    # (aggregation switches ascending, then cores ascending — the
    # adjacency insertion order of :func:`build_fattree`), so
    # ECMP/DistinctPath selections, and with them every golden trace,
    # are bit-identical to the generic path (pinned by
    # tests/test_fluid_backend.py's equality tests).
    #
    # Nothing is memoised per pair: a list is at most (k/2)^2 tuples
    # (64 at k=16, 4 at k=4) built in microseconds, while a permutation
    # draws each pair about once, so a memo would only keep every path
    # of every pair alive for the life of the network.

    def _construct_paths(
        self, src: str, dst: str, max_paths: int
    ) -> Optional[List[Path]]:
        """Shortest host-to-host paths from the link tables; None unless
        both ends are hosts :func:`build_fattree` placed."""
        src_port = self._host_ports.get(src)
        dst_port = self._host_ports.get(dst)
        if src_port is None or dst_port is None:
            return None
        if src == dst:
            return [()]
        src_pod, src_edge, up, _ = src_port
        dst_pod, dst_edge, _, down = dst_port
        if src_pod == dst_pod and src_edge == dst_edge:
            paths: List[Path] = [(up, down)]
        elif src_pod == dst_pod:
            paths = [
                (up, edge_up, edge_down, down)
                for (edge_up, _), (_, edge_down) in zip(
                    self._edge_agg[src_pod][src_edge],
                    self._edge_agg[dst_pod][dst_edge],
                )
            ]
        else:
            paths = [
                (up, edge_up, core_up, core_down, edge_down, down)
                for (edge_up, _), (_, edge_down), src_cores, dst_cores in zip(
                    self._edge_agg[src_pod][src_edge],
                    self._edge_agg[dst_pod][dst_edge],
                    self._agg_core[src_pod],
                    self._agg_core[dst_pod],
                )
                for (core_up, _), (_, core_down) in zip(src_cores, dst_cores)
            ]
        del paths[max_paths:]
        return paths

    def paths(self, src: str, dst: str, max_paths: int = 64) -> List[Path]:
        """All shortest paths, constructed from the link tables for host
        pairs; a fresh list per call.

        Switch endpoints (or hosts not placed by :func:`build_fattree`)
        fall back to the generic, cached BFS enumeration of
        :class:`~repro.net.network.Network`.
        """
        constructed = self._construct_paths(src, dst, max_paths)
        if constructed is None:
            return super().paths(src, dst, max_paths)
        return constructed


def fattree_hosts(k: int) -> int:
    """The host count of a k-ary fat tree, ``k^3/4``; ``ValueError`` unless
    ``k`` is an even integer >= 2."""
    if k < 2 or k % 2 != 0:
        raise ValueError(f"fat-tree k must be an even integer >= 2, got {k}")
    return k ** 3 // 4


def build_fattree(
    k: int = 4,
    link_rate_bps: BitsPerSecond = 1e9,
    queue_capacity: int = 100,
    marking_threshold: int = 10,
) -> FatTreeNetwork:
    """Build a k-ary fat tree with the paper's §5.2.1 defaults."""
    fattree_hosts(k)
    net = FatTreeNetwork()
    net.k = k
    net.link_rate_bps = link_rate_bps
    half = k // 2

    def queue() -> DropTailQueue:
        return ThresholdECNQueue(queue_capacity, marking_threshold)

    cores = [
        net.add_switch(f"core_{i}_{j}") for i in range(half) for j in range(half)
    ]

    for pod in range(k):
        aggs = [net.add_switch(f"agg_{pod}_{a}") for a in range(half)]
        edges = [net.add_switch(f"edge_{pod}_{e}") for e in range(half)]
        agg_core: List[List[LinkPair]] = []
        edge_agg: List[List[LinkPair]] = [[] for _ in edges]
        for a, agg in enumerate(aggs):
            # Aggregation switch a connects to cores a*half .. a*half+half-1.
            agg_core.append([
                net.connect(agg, cores[a * half + j], link_rate_bps, CORE_DELAY,
                            queue_factory=queue, layer="core")
                for j in range(half)
            ])
            for e, edge in enumerate(edges):
                edge_agg[e].append(
                    net.connect(edge, agg, link_rate_bps, AGGREGATION_DELAY,
                                queue_factory=queue, layer="aggregation")
                )
        net._agg_core.append(agg_core)
        net._edge_agg.append(edge_agg)
        for e, edge in enumerate(edges):
            for h in range(half):
                host = net.add_host(f"h_{pod}_{e}_{h}")
                up, down = net.connect(host, edge, link_rate_bps, RACK_DELAY,
                                       queue_factory=queue, layer="rack")
                net._host_ports[host.name] = (pod, e, up, down)
                net.host_names.append(host.name)
    return net


__all__ = ["FatTreeNetwork", "build_fattree", "fattree_hosts"]

"""Fluid-model state extracted from a packet-level :class:`Network`.

A :class:`FluidModel` is the static description the solver integrates,
as flat columns: one entry per directed link on any subflow path, one
per (flow, path) subflow, and the subflows' paths in CSR form.

The extraction goes through the same objects the packet engine runs on
— :meth:`repro.net.network.Network.paths` enumeration, ``Link.delay``,
``Link.rate_bps``, queue ``threshold``/``capacity`` — so the two
backends cannot disagree about the topology.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from repro.net.network import Network
from repro.net.packet import ACK_PACKET_BYTES, DATA_PACKET_BYTES
from repro.net.routing import Path
from repro.sim.units import Seconds

#: Packet size used to convert packets <-> bits: the packet engine's
#: full data packet (paper: 1500 B MTU).
PACKET_BITS = DATA_PACKET_BYTES * 8

#: Reverse-path (ACK) size used in the no-load RTT: the packet engine's
#: pure-ACK segment.
ACK_BITS = ACK_PACKET_BYTES * 8


@dataclass(frozen=True)
class FluidModel:
    """The static inputs of one fluid integration.

    Link columns parallel ``link_names``: ``ecn_threshold`` is the knee
    ECN-capable schemes react to (the queue's K, or its capacity when it
    never marks), ``drop_threshold`` the buffer-full knee of loss-driven
    ones.  Subflow ``s`` has flow ``flow_of[s]``, no-load RTT
    ``base_rtt[s]`` and crosses ``path_links[path_start[s]:path_start[s+1]]``.
    """

    link_names: Tuple[str, ...]
    #: Service rate in packets/second (rate_bps / PACKET_BITS).
    capacity_pps: array
    ecn_threshold: array
    drop_threshold: array
    #: Grouped contiguously by flow, flow ids ascending from 0 — the
    #: solvers' per-flow segment reductions rely on this layout.
    flow_of: array
    base_rtt: array
    path_start: array
    path_links: array
    num_flows: int


def _no_load_rtt(net: Network, path: Path) -> Seconds:
    """Propagation plus serialization both ways, data out and ACKs back."""
    rtt = 0.0
    for link in path:
        rtt += link.delay + PACKET_BITS / link.rate_bps
    for link in net.reverse_path(path):
        rtt += link.delay + ACK_BITS / link.rate_bps
    return rtt


def model_from_network(
    net: Network, flow_paths: Iterable[Sequence[Path]]
) -> FluidModel:
    """Build a :class:`FluidModel` from per-flow forward-path lists.

    ``flow_paths`` yields each flow's forward paths (one per subflow), as
    the routing selectors return them; each flow is appended to the
    columns before the next is drawn, so a generator keeps no flow's
    paths alive.  Only links on some forward path become fluid links —
    reverse (ACK) directions contribute their no-load delay but carry
    negligible load.
    """
    link_index: Dict[str, int] = {}
    capacity, ecn, drop = array("d"), array("d"), array("d")
    flow_of, base_rtt = array("q"), array("d")
    path_start, path_links = array("q", [0]), array("q")
    num_flows = 0
    for flow, paths in enumerate(flow_paths):
        num_flows = flow + 1
        if not paths:
            raise ValueError(f"flow {flow} has no paths")
        for path in paths:
            if not path:
                raise ValueError(f"flow {flow} has an empty path")
            for link in path:
                index = link_index.get(link.name)
                if index is None:
                    index = link_index[link.name] = len(link_index)
                    queue = link.queue
                    capacity.append(link.rate_bps / PACKET_BITS)
                    ecn.append(float(getattr(queue, "threshold", queue.capacity)))
                    drop.append(float(queue.capacity))
                path_links.append(index)
            path_start.append(len(path_links))
            flow_of.append(flow)
            base_rtt.append(_no_load_rtt(net, path))
    return FluidModel(
        tuple(link_index), capacity, ecn, drop, flow_of, base_rtt, path_start, path_links,
        num_flows,
    )


__all__ = [
    "ACK_BITS",
    "PACKET_BITS",
    "FluidModel",
    "model_from_network",
]

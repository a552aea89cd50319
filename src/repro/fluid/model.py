"""Fluid-model state extracted from a packet-level :class:`Network`.

A :class:`FluidModel` is the static description the solver integrates:
one :class:`FluidLink` per directed link that appears on any subflow
path (capacity in packets/s plus its queue's marking and drop knees),
and one :class:`FluidSubflow` per (flow, path) pair with the no-load
RTT precomputed from link delays and serialization times.

The extraction goes through the same objects the packet engine runs on
— :meth:`repro.net.network.Network.paths` enumeration, ``Link.delay``,
``Link.rate_bps``, queue ``threshold``/``capacity`` — so the two
backends cannot disagree about the topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.net.network import Network
from repro.net.packet import ACK_PACKET_BYTES, DATA_PACKET_BYTES
from repro.net.routing import Path
from repro.sim.units import Packets, Seconds

#: Packet size used to convert packets <-> bits: the packet engine's
#: full data packet (paper: 1500 B MTU).
PACKET_BITS = DATA_PACKET_BYTES * 8

#: Reverse-path (ACK) size used in the no-load RTT: the packet engine's
#: pure-ACK segment.
ACK_BITS = ACK_PACKET_BYTES * 8


@dataclass(frozen=True)
class FluidLink:
    """One directed link's fluid state parameters.

    ``ecn_threshold`` is the marking knee for ECN-capable schemes (the
    queue's K, or its capacity when the queue never marks);
    ``drop_threshold`` is the buffer-full knee loss-driven schemes react
    to (always the queue capacity).
    """

    name: str
    #: Service rate in packets/second (rate_bps / PACKET_BITS).
    capacity_pps: float
    ecn_threshold: Packets
    drop_threshold: Packets


@dataclass(frozen=True)
class FluidSubflow:
    """One subflow: its flow id, no-load RTT and forward-path links."""

    flow: int
    base_rtt: Seconds
    #: Indices into :attr:`FluidModel.links`, in hop order.
    links: Tuple[int, ...]


@dataclass(frozen=True)
class FluidModel:
    """The static inputs of one fluid integration."""

    links: Tuple[FluidLink, ...]
    #: Grouped contiguously by flow, flow ids ascending from 0 — the
    #: solver's per-flow segment reductions rely on this layout.
    subflows: Tuple[FluidSubflow, ...]
    num_flows: int

    def flow_slices(self) -> List[Tuple[int, int]]:
        """Per-flow ``(start, end)`` index ranges into :attr:`subflows`."""
        slices: List[Tuple[int, int]] = []
        start = 0
        for index, subflow in enumerate(self.subflows):
            if subflow.flow != self.subflows[start].flow:
                slices.append((start, index))
                start = index
        if self.subflows:
            slices.append((start, len(self.subflows)))
        return slices


def _no_load_rtt(net: Network, path: Path) -> Seconds:
    """Propagation plus serialization both ways, data out and ACKs back."""
    rtt = 0.0
    for link in path:
        rtt += link.delay + PACKET_BITS / link.rate_bps
    for link in net.reverse_path(path):
        rtt += link.delay + ACK_BITS / link.rate_bps
    return rtt


def model_from_network(
    net: Network, flow_paths: Sequence[Sequence[Path]]
) -> FluidModel:
    """Build a :class:`FluidModel` from per-flow forward-path lists.

    ``flow_paths[f]`` is the list of forward paths (one per subflow) of
    flow ``f``, as returned by :meth:`Network.paths` and the routing
    selectors.  Only links appearing on some forward path become fluid
    links — reverse (ACK) directions contribute their no-load delay but
    carry negligible load, exactly the approximation the shared-link
    model :func:`repro.fluid.solver.integrate_shared_link` makes.
    """
    link_index: Dict[str, int] = {}
    links: List[FluidLink] = []
    subflows: List[FluidSubflow] = []
    for flow, paths in enumerate(flow_paths):
        if not paths:
            raise ValueError(f"flow {flow} has no paths")
        for path in paths:
            if not path:
                raise ValueError(f"flow {flow} has an empty path")
            hop_indices = []
            for link in path:
                index = link_index.get(link.name)
                if index is None:
                    index = len(links)
                    link_index[link.name] = index
                    queue = link.queue
                    drop = float(queue.capacity)
                    ecn = float(getattr(queue, "threshold", queue.capacity))
                    links.append(
                        FluidLink(
                            name=link.name,
                            capacity_pps=link.rate_bps / PACKET_BITS,
                            ecn_threshold=ecn,
                            drop_threshold=drop,
                        )
                    )
                hop_indices.append(index)
            subflows.append(
                FluidSubflow(
                    flow=flow,
                    base_rtt=_no_load_rtt(net, path),
                    links=tuple(hop_indices),
                )
            )
    return FluidModel(
        links=tuple(links),
        subflows=tuple(subflows),
        num_flows=len(flow_paths),
    )


__all__ = [
    "ACK_BITS",
    "PACKET_BITS",
    "FluidLink",
    "FluidModel",
    "FluidSubflow",
    "model_from_network",
]

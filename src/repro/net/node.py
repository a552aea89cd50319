"""Nodes: hosts and switches.

Forwarding is source-routed: every packet carries the full tuple of links
it will traverse, and each node simply pushes it onto ``path[hop]``.  A
:class:`Switch` therefore does O(1) work per packet.  :class:`Host` nodes
terminate packets and hand them to the transport demultiplexer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Tuple

from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.sim.engine import Simulator


class Node:
    """Base class for anything a link can deliver packets to."""

    __slots__ = ("sim", "name")

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name

    def receive(self, packet: Packet) -> None:
        raise NotImplementedError

    def forward(self, packet: Packet) -> bool:
        """Push ``packet`` onto its next source-routed hop.

        Returns ``False`` when the packet was dropped (queue overflow or a
        downed link), which callers may use for accounting; senders learn
        about drops only through missing ACKs.
        """
        hop = packet.hop
        try:
            link = packet.path[hop]
        except IndexError:
            raise _no_next_hop(self, packet) from None
        packet.hop = hop + 1
        return link.enqueue(packet)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name})"


class Switch(Node):
    """A source-routing switch: look at ``packet.path[hop]``, enqueue, done."""

    __slots__ = ("packets_forwarded",)

    def __init__(self, sim: "Simulator", name: str) -> None:
        super().__init__(sim, name)
        self.packets_forwarded = 0

    def receive(self, packet: Packet) -> None:
        # `forward` inlined: switches see every transit packet, so the
        # extra frame is measurable on fat-tree cells.
        self.packets_forwarded += 1
        hop = packet.hop
        try:
            link = packet.path[hop]
        except IndexError:
            raise _no_next_hop(self, packet) from None
        packet.hop = hop + 1
        if link.busy and link.up:
            # The busy-transmitter branch of Link.enqueue, inlined: on a
            # loaded fabric most transit packets take it, and the saved
            # frame is measurable.  Everything else (idle transmitter,
            # downed link) falls through to the real method, which
            # redoes its own offered-bytes accounting.
            link.bytes_offered += packet.size
            link.queue.accept(packet)
            return
        link.enqueue(packet)


class Host(Node):
    """An end host terminating transport endpoints.

    Transport endpoints register per ``(flow, subflow)`` key; each received
    packet is dispatched to the matching endpoint's ``receive``.  Packets
    with no registered endpoint are counted and discarded (they can occur
    legitimately when a flow finishes while its last ACKs are in flight).
    """

    __slots__ = ("_endpoints", "packets_delivered", "packets_unclaimed")

    def __init__(self, sim: "Simulator", name: str) -> None:
        super().__init__(sim, name)
        self._endpoints: Dict[Tuple[int, int], Callable[[Packet], None]] = {}
        self.packets_delivered = 0
        self.packets_unclaimed = 0

    def register(
        self, flow: int, subflow: int, handler: Callable[[Packet], None]
    ) -> None:
        """Bind ``handler`` to packets for ``(flow, subflow)``."""
        key = (flow, subflow)
        if key in self._endpoints:
            raise ValueError(f"{self.name}: endpoint {key} already registered")
        self._endpoints[key] = handler

    def unregister(self, flow: int, subflow: int) -> None:
        """Remove an endpoint binding; missing bindings are ignored."""
        self._endpoints.pop((flow, subflow), None)

    def receive(self, packet: Packet) -> None:
        if packet.hop < len(packet.path):
            # Hosts can also relay (multihomed testbed nodes).
            self.forward(packet)
            return
        handler = self._endpoints.get((packet.flow, packet.subflow))  # simperf: allow-alloc(dict-key tuple; no interning possible)
        if handler is None:
            self.packets_unclaimed += 1
            return
        self.packets_delivered += 1
        handler(packet)

    def send(self, packet: Packet) -> bool:
        """Inject a locally generated packet onto its first hop."""
        # `forward` inlined: every transmitted segment and ACK enters the
        # network here, so the extra frame is measurable.
        hop = packet.hop
        try:
            link = packet.path[hop]
        except IndexError:
            raise _no_next_hop(self, packet) from None
        packet.hop = hop + 1
        return link.enqueue(packet)


def _no_next_hop(node: Node, packet: Packet) -> RuntimeError:
    """The error for a packet forwarded past the end of its path.

    The forwarding paths index ``path[hop]`` unguarded and turn the
    ``IndexError`` into this, so the common case pays no length check.
    """
    return RuntimeError(f"{node.name}: packet has no next hop ({packet!r})")


__all__ = ["Node", "Switch", "Host"]

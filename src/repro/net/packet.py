"""Packet objects.

A packet is a single slotted object carrying the handful of header fields
the reproduced algorithms actually read:

* ``seq`` / ``ack`` — **segment-granular** sequence numbers.  One DATA
  packet carries one MSS of payload; sequence arithmetic is in whole
  segments, matching how the paper states its window laws ("cwnd changes
  with packet granularity").
* ``ect`` / ``ce`` — the two halves of ECN: the sender declares the packet
  ECN-capable (ECT) and a congested queue sets Congestion Experienced (CE).
  Queues never mark non-ECT packets (they can only drop them), exactly as
  in RFC 3168.
* ``ece_count`` — the paper's two-bit ECE/CWR echo on ACKs: the receiver
  returns the exact number of CE marks (0-3) accumulated since the last
  ACK.  Classic TCP/DCTCP receivers use the same field with their own
  semantics (see :mod:`repro.transport.receiver`).
* ``path`` / ``hop`` — source route: an explicit tuple of links from the
  sender to the destination, with ``hop`` the index of the next link to
  take.  See :mod:`repro.net.routing` for why this stands in for the
  paper's two-level lookup + multi-address trick.
* ``ts`` — sender timestamp, echoed by the receiver as ``ts_echo`` for RTT
  sampling (TCP timestamps, RFC 7323, reduced to its essence).
"""

from __future__ import annotations

from typing import Tuple

DATA = 0
ACK = 1

#: Wire size of a full-MSS data packet (Ethernet payload incl. headers).
DATA_PACKET_BYTES = 1500
#: Wire size of a pure ACK.
ACK_PACKET_BYTES = 40
#: Payload bytes carried by one DATA packet.
MSS_BYTES = 1460


class Packet:
    """One simulated packet; see module docstring for field semantics."""

    __slots__ = (
        "kind",
        "size",
        "flow",
        "subflow",
        "seq",
        "ack",
        "ts",
        "ts_echo",
        "ect",
        "ce",
        "ece_count",
        "sack",
        "path",
        "hop",
    )

    def __init__(
        self,
        kind: int,
        size: int,
        flow: int,
        subflow: int,
        seq: int = 0,
        ack: int = 0,
        ts: float = 0.0,
        ts_echo: float = -1.0,  # -1 = no echo (0.0 is a valid sim time)
        ect: bool = False,
        ce: bool = False,
        ece_count: int = 0,
        sack: Tuple[Tuple[int, int], ...] = (),
        path: Tuple["Link", ...] = (),
        hop: int = 0,
    ) -> None:
        self.kind = kind
        self.size = size
        self.flow = flow
        self.subflow = subflow
        self.seq = seq
        self.ack = ack
        self.ts = ts
        self.ts_echo = ts_echo
        self.ect = ect
        self.ce = ce
        self.ece_count = ece_count
        #: SACK blocks as (first, one-past-last) segment ranges (<= 3, most
        #: recent first), mirroring RFC 2018's three-block option budget.
        self.sack = sack
        self.path = path
        self.hop = hop

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "DATA" if self.kind == DATA else "ACK"
        mark = "+CE" if self.ce else ""
        return (
            f"Packet({kind}{mark}, flow={self.flow}.{self.subflow}, "
            f"seq={self.seq}, ack={self.ack}, hop={self.hop}/{len(self.path)})"
        )


def make_data_packet(
    flow: int,
    subflow: int,
    seq: int,
    now: float,
    path: Tuple["Link", ...],
    ect: bool,
) -> Packet:
    """Build a full-MSS data packet stamped with the current time."""
    # Positional arguments throughout: keyword matching costs real time
    # at this call rate (one construction per transmitted segment).
    return Packet(
        DATA, DATA_PACKET_BYTES, flow, subflow, seq, 0, now, -1.0, ect, False, 0, (), path, 0
    )


def make_ack_packet(
    flow: int,
    subflow: int,
    ack: int,
    now: float,
    ts_echo: float,
    path: Tuple["Link", ...],
    ece_count: int = 0,
    sack: Tuple[Tuple[int, int], ...] = (),
) -> Packet:
    """Build a pure ACK.  ACKs are never ECN-capable in this model.

    Real stacks mark ACKs non-ECT so that congestion on the reverse path
    cannot be confused with forward-path congestion; we follow suit.
    """
    return Packet(
        ACK, ACK_PACKET_BYTES, flow, subflow, 0, ack, now, ts_echo,
        False, False, ece_count, sack, path, 0,
    )


__all__ = [
    "Packet",
    "DATA",
    "ACK",
    "DATA_PACKET_BYTES",
    "ACK_PACKET_BYTES",
    "MSS_BYTES",
    "make_data_packet",
    "make_ack_packet",
]

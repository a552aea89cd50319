"""The receive side: reordering, delayed ACKs and ECN echo.

One :class:`Receiver` terminates one subflow on the destination host.  It
tracks the cumulative receive point, buffers out-of-order segments, and
generates ACKs according to the delayed-ACK rule the paper assumes (one
cumulative ACK for at most every two consecutively received packets) plus
the echo discipline of the scheme in use:

* ``EchoMode.XMP`` — the paper's BOS step 2: the exact number of CE marks
  received since the last ACK is returned in the two ECE/CWR bits, so at
  most 3 per ACK; hitting 3 forces an immediate ACK so no mark is lost.
* ``EchoMode.DCTCP`` — accurate per-segment mark feedback: the ACK carries
  the number of CE-marked segments it covers, and a change in CE state
  forces an immediate ACK (DCTCP's state-machine behaviour, which bounds
  the estimation error the same way).
* ``EchoMode.CLASSIC`` — RFC 3168 flavour: the ACK just says "congestion
  was seen" (a single bit); the sender reacts at most once per RTT.
"""

from __future__ import annotations

import enum
import random
from typing import Set

from repro.net.node import Host
from repro.net.packet import Packet, make_ack_packet
from repro.net.routing import Path
from repro.sim.engine import Simulator
from repro.sim.events import Timer
from repro.sim.units import Seconds


class EchoMode(enum.Enum):
    """How CE marks are reflected back to the sender."""

    XMP = "xmp"
    DCTCP = "dctcp"
    CLASSIC = "classic"


#: The paper's two-bit ECE/CWR encoding holds at most this many CEs.
XMP_MAX_CE_PER_ACK = 3
#: Delayed-ACK: acknowledge at least every Nth data packet.
DELAYED_ACK_EVERY = 2
#: Delayed-ACK timeout.  Real stacks use tens of ms; in a DCN that
#: would dwarf the RTT, and bulk traffic almost never hits the timer anyway.
DELACK_TIMEOUT = 500e-6


class Receiver:
    """Subflow receive endpoint registered on the destination host."""

    __slots__ = (
        "sim",
        "host",
        "flow",
        "subflow",
        "reverse_path",
        "echo_mode",
        "rcv_nxt",
        "_out_of_order",
        "_unacked_data",
        "_pending_ce",
        "_earliest_ts",
        "_last_ce_state",
        "_delack_timer",
        "segments_received",
        "duplicates_received",
        "acks_sent",
        "ce_received",
        "sack_enabled",
        "ack_jitter",
        "_jitter_rng",
    )

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow: int,
        subflow: int,
        reverse_path: Path,
        echo_mode: EchoMode = EchoMode.CLASSIC,
        sack_enabled: bool = False,
        ack_jitter: Seconds = 0.0,
        jitter_seed: int = 0,
    ) -> None:
        self.sim = sim
        self.host = host
        self.flow = flow
        self.subflow = subflow
        self.reverse_path = reverse_path
        self.echo_mode = echo_mode
        self.rcv_nxt = 0
        self._out_of_order: Set[int] = set()
        self._unacked_data = 0
        self._pending_ce = 0
        self._earliest_ts = -1.0  # -1 = nothing pending
        self._last_ce_state = False
        self._delack_timer = Timer(sim, self._on_delack_timeout)
        self.segments_received = 0
        self.duplicates_received = 0
        self.acks_sent = 0
        self.ce_received = 0
        self.sack_enabled = sack_enabled
        #: Optional uniform delay in [0, ack_jitter) before each ACK is
        #: injected, modelling host-stack timing noise.  Zero (default)
        #: keeps the simulator bit-deterministic and faithful to the
        #: paper's NS-3 setting — including its phase-locking/global-
        #: synchronization artifacts.  To actually decorrelate two flows'
        #: queue-arrival phases the jitter must exceed one packet
        #: serialization time (12 us at 1 Gbps); smaller values only
        #: perturb, not break, a phase lock.
        self.ack_jitter = ack_jitter
        self._jitter_rng = random.Random(jitter_seed) if ack_jitter > 0 else None
        host.register(flow, subflow, self.receive)

    # ------------------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """Handle an arriving DATA packet (the host demux calls this)."""
        seq = packet.seq
        if self._unacked_data == 0:
            self._earliest_ts = packet.ts
        ce_state_changed = packet.ce != self._last_ce_state
        self._last_ce_state = packet.ce
        if packet.ce:
            self._pending_ce += 1
            self.ce_received += 1

        out_of_order = False
        duplicate = False
        if seq == self.rcv_nxt:
            self.segments_received += 1
            self.rcv_nxt += 1
            # Drain any buffered continuation.
            buffered = self._out_of_order
            while self.rcv_nxt in buffered:
                buffered.discard(self.rcv_nxt)
                self.rcv_nxt += 1
        elif seq > self.rcv_nxt:
            self.segments_received += 1
            out_of_order = True
            self._out_of_order.add(seq)
        else:
            # Spurious retransmission; ACK immediately to resync the sender.
            duplicate = True
            self.duplicates_received += 1

        self._unacked_data += 1
        force = (
            out_of_order
            or duplicate
            or self._unacked_data >= DELAYED_ACK_EVERY
            or (
                self.echo_mode is EchoMode.XMP
                and self._pending_ce >= XMP_MAX_CE_PER_ACK
            )
            or (self.echo_mode is EchoMode.DCTCP and ce_state_changed)
        )
        if force:
            self._send_ack()
        elif not self._delack_timer.armed:
            self._delack_timer.start(DELACK_TIMEOUT)

    # ------------------------------------------------------------------

    def _on_delack_timeout(self) -> None:
        if self._unacked_data > 0:
            self._send_ack()

    def _send_ack(self) -> None:
        self._delack_timer.cancel()
        ece_count = self._encode_ece()
        ack = make_ack_packet(  # simperf: allow-alloc(the ACK packet is the payload of this function)
            self.flow,
            self.subflow,
            self.rcv_nxt,
            self.sim.now,
            ts_echo=self._earliest_ts,
            path=self.reverse_path,
            ece_count=ece_count,
            sack=self._sack_blocks() if self.sack_enabled else (),  # simperf: allow-alloc(bounded per-ACK SACK block tuple)
        )
        self._unacked_data = 0
        self.acks_sent += 1
        if self._jitter_rng is not None:
            delay = self._jitter_rng.random() * self.ack_jitter
            self.sim.post(delay, self.host.send, ack)
        else:
            self.host.send(ack)

    def _encode_ece(self) -> int:
        if self._pending_ce == 0:
            return 0
        if self.echo_mode is EchoMode.XMP:
            count = min(self._pending_ce, XMP_MAX_CE_PER_ACK)
            self._pending_ce -= count
            return count
        if self.echo_mode is EchoMode.DCTCP:
            count = self._pending_ce
            self._pending_ce = 0
            return count
        # CLASSIC: a single congestion-seen bit.
        self._pending_ce = 0
        return 1

    def _sack_blocks(self) -> tuple:
        """Up to three contiguous out-of-order ranges, highest first.

        RFC 2018 budgets at most three blocks per ACK (with timestamps);
        reporting the *highest* ranges first tells the sender about the
        most recent deliveries, which is what drives hole detection.
        """
        if not self._out_of_order:
            return ()
        ordered = sorted(self._out_of_order)
        blocks = []
        start = prev = ordered[0]
        for seq in ordered[1:]:
            if seq == prev + 1:
                prev = seq
                continue
            blocks.append((start, prev + 1))
            start = prev = seq
        blocks.append((start, prev + 1))
        return tuple(reversed(blocks[-3:]))

    def close(self) -> None:
        """Tear down the endpoint for good (close the delayed-ACK timer,
        unregister from the host demux)."""
        self._delack_timer.close()
        self.host.unregister(self.flow, self.subflow)


__all__ = [
    "Receiver",
    "EchoMode",
    "XMP_MAX_CE_PER_ACK",
    "DELAYED_ACK_EVERY",
    "DELACK_TIMEOUT",
]

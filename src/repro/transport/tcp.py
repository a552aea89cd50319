"""The TCP sender state machine.

One :class:`TcpSender` drives one subflow: it owns the sequence space,
sends segments up to the congestion window, processes cumulative ACKs,
performs NewReno-style fast retransmit/recovery and RTO-based go-back-N,
and delegates every window adjustment to its pluggable
:class:`~repro.transport.cc.CongestionControl`.

Sequence numbers count whole MSS-sized segments (see
:mod:`repro.net.packet`).  Data to send is pulled from a
:class:`SegmentSource` so the same sender serves single-path flows (a
:class:`FiniteSource`), long-running flows (:class:`InfiniteSource`) and
MPTCP subflows (the connection's shared pool).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.net.node import Host
from repro.net.packet import MSS_BYTES, Packet, make_data_packet
from repro.net.routing import Path
from repro.sim.engine import Simulator
from repro.sim.events import Timer
from repro.sim.probe import watchers
from repro.sim.units import Seconds
from repro.transport.cc import CongestionControl
from repro.transport.rto import RttEstimator

#: Fast retransmit after this many duplicate ACKs (RFC 5681).
DUPACK_THRESHOLD = 3
#: Initial window, segments (Linux since 2.6.39; kernel 3.5, which
#: the paper's MPTCP v0.86 is based on, ships IW10).
INITIAL_CWND = 10
#: How many segments a sender asks its source for at a time.
SOURCE_BATCH = 16


class SegmentSource:
    """Supplies segments for a sender to transmit."""

    def take(self, want: int) -> int:
        """Grant up to ``want`` more segments; 0 means none available now."""
        raise NotImplementedError

    @property
    def exhausted(self) -> bool:
        """True when no further segments will ever be granted."""
        raise NotImplementedError


class FiniteSource(SegmentSource):
    """A fixed number of segments: one finite flow's data, or the pool the
    subflows of one finite MPTCP connection share."""

    def __init__(self, total_segments: int) -> None:
        if total_segments < 0:
            raise ValueError(f"total_segments must be >= 0, got {total_segments}")
        self.total = total_segments
        self.granted = 0

    def take(self, want: int) -> int:
        grant = min(want, self.total - self.granted)
        self.granted += grant
        return grant

    @property
    def exhausted(self) -> bool:
        return self.granted >= self.total

    def restitute(self, count: int) -> None:
        """Return ``count`` granted-but-undelivered segments to the pool.

        Used by connection-level reinjection: when a subflow is declared
        dead, the data it was assigned but never got acknowledged goes
        back into the pool so surviving subflows can carry it.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count > self.granted:
            raise ValueError(
                f"cannot restitute {count} of {self.granted} granted segments"
            )
        self.granted -= count


class InfiniteSource(SegmentSource):
    """An endless supply (long-running rate-measurement flows)."""

    def take(self, want: int) -> int:
        return want

    @property
    def exhausted(self) -> bool:
        return False


class TcpSender:
    """Send side of one (sub)flow."""

    __slots__ = (
        "sim",
        "host",
        "flow",
        "subflow",
        "path",
        "cc",
        "source",
        "cwnd",
        "ssthresh",
        "snd_una",
        "snd_nxt",
        "assigned",
        "beg_seq",
        "dupacks",
        "in_recovery",
        "recover",
        "rtt",
        "rto_timer",
        "completed",
        "on_delivered",
        "segments_sent",
        "retransmissions",
        "fast_retransmits",
        "timeouts",
        "rounds",
        "complete_time",
        "running",
        "consecutive_timeouts",
        "on_timeout_event",
        "sack_enabled",
        "_sacked",
        "_rescued",
        "observer",
    )

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow: int,
        subflow: int,
        path: Path,
        cc: CongestionControl,
        source: SegmentSource,
        rto_min: Seconds = 0.200,
        on_delivered: Optional[Callable[[int], None]] = None,
        sack_enabled: bool = False,
    ) -> None:
        self.sim = sim
        self.host = host
        self.flow = flow
        self.subflow = subflow
        self.path = path
        self.cc = cc
        self.source = source
        cc.attach(self)
        self.cwnd = float(INITIAL_CWND)
        self.ssthresh = math.inf
        self.snd_una = 0
        self.snd_nxt = 0
        self.assigned = 0
        self.beg_seq = 0
        self.dupacks = 0
        self.in_recovery = False
        self.recover = 0
        self.rtt = RttEstimator(rto_min=rto_min)
        self.rto_timer = Timer(sim, self._on_rto)
        self.completed = False
        self.on_delivered = on_delivered
        self.segments_sent = 0
        self.retransmissions = 0
        self.fast_retransmits = 0
        self.timeouts = 0
        self.rounds = 0
        self.complete_time: Optional[float] = None
        self.running = False
        #: RTOs since the last forward progress; a proxy for "path dead".
        self.consecutive_timeouts = 0
        #: Optional hook fired after every RTO (MPTCP reinjection uses it).
        self.on_timeout_event: Optional[Callable[["TcpSender"], None]] = None
        #: Selective acknowledgements (RFC 2018/6675, simplified): the
        #: scoreboard lets recovery repair several holes per RTT instead of
        #: NewReno's one.  Off by default so the paper-default behaviour is
        #: a SACK-less stack; see the SACK ablation bench.
        self.sack_enabled = sack_enabled
        self._sacked: set = set()
        self._rescued: set = set()
        #: Optional validation observer (see :mod:`repro.validate`).
        self.observer = None
        host.register(flow, subflow, self._on_packet)
        for probe in watchers():
            probe.watch_sender(self)

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------

    @property
    def flight(self) -> int:
        """Outstanding (sent, unacknowledged) segments."""
        return self.snd_nxt - self.snd_una

    @property
    def delivered_segments(self) -> int:
        """Cumulatively acknowledged segments."""
        return self.snd_una

    @property
    def srtt(self) -> Optional[float]:
        """Smoothed RTT in seconds (``None`` before the first sample)."""
        return self.rtt.srtt

    @property
    def instant_rate(self) -> float:
        """The paper's ``instant_rate`` = cwnd / srtt, segments per second.

        Zero until the first RTT sample exists, matching the kernel code
        which only computes it once ``srtt_us`` is populated.
        """
        srtt = self.rtt.srtt
        if srtt is None or srtt <= 0:
            return 0.0
        return self.cwnd / srtt

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin transmitting (call once, at the flow's start time)."""
        if self.running:
            raise RuntimeError("sender already started")
        self.running = True
        self._try_send()

    def stop(self) -> None:
        """Abort the flow: stop sending and cancel timers."""
        self.running = False
        self.rto_timer.cancel()

    def close(self) -> None:
        """Tear the endpoint down for good: stop, close the RTO timer and
        unregister, so nothing the simulator holds reaches this sender.

        It also cuts every back-edge the sender is part of: the controller
        lets go of it (:meth:`CongestionControl.close
        <repro.transport.cc.CongestionControl.close>`), and the two hooks,
        bound methods of the owning connection, are dropped.  A closed
        sender is then in no reference cycle, so it is freed by reference
        counting as soon as its connection is, not by a later collection.
        """
        self.stop()
        self.rto_timer.close()
        self.host.unregister(self.flow, self.subflow)
        self.cc.close()
        self.on_delivered = None
        self.on_timeout_event = None

    @property
    def settled(self) -> bool:
        """Every segment was sent exactly once and acknowledged, so no
        copy of any can still be on its way to the receiver."""
        return (
            self.snd_una == self.snd_nxt
            and self.timeouts == 0
            and self.retransmissions == 0
        )

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def _try_send(self) -> None:
        if not self.running or self.completed:
            return
        window = int(self.cwnd)
        take = self.source.take
        while self.snd_nxt - self.snd_una < window:
            if self.snd_nxt >= self.assigned:
                granted = take(SOURCE_BATCH)
                if granted == 0:
                    break
                self.assigned += granted
            self._transmit(self.snd_nxt, retransmission=False)
            self.snd_nxt += 1

    def _transmit(self, seq: int, retransmission: bool) -> None:
        packet = make_data_packet(  # simperf: allow-alloc(the DATA packet is the payload of this function)
            self.flow,
            self.subflow,
            seq,
            self.sim.now,
            self.path,
            ect=self.cc.ecn_capable,
        )
        if retransmission:
            self.retransmissions += 1
        else:
            self.segments_sent += 1
        self.host.send(packet)
        if not self.rto_timer.armed:
            self.rto_timer.start(self.rtt.rto)

    # ------------------------------------------------------------------
    # Receiving ACKs
    # ------------------------------------------------------------------

    def _on_packet(self, packet: Packet) -> None:
        if not self.running:
            return
        observer = self.observer
        cwnd_before = self.cwnd
        now = self.sim.now
        ack = packet.ack
        rtt_sample: Optional[float] = None
        if packet.ts_echo >= 0.0:
            rtt_sample = now - packet.ts_echo
            if rtt_sample >= 0.0:
                self.rtt.update(rtt_sample)

        if ack < self.snd_una:
            # Stale ACK (reordered on the reverse path, e.g. by ACK
            # jitter): carries no new information, must not count as a
            # duplicate of the *current* ACK point.
            return

        if self.sack_enabled and packet.sack:
            sacked_update = self._sacked.update
            for block_start, block_end in packet.sack:
                sacked_update(range(block_start, block_end))  # simperf: allow-alloc(bounded per-ACK SACK range)

        newly = ack - self.snd_una
        round_ended = False
        if newly > 0:
            self.snd_una = ack
            self.dupacks = 0
            self.consecutive_timeouts = 0
            if self.in_recovery:
                if ack >= self.recover:
                    # Full ACK: leave recovery, deflate to ssthresh.
                    self.in_recovery = False
                    self.cwnd = max(self.ssthresh, 1.0)
                    self._sacked.clear()
                    self._rescued.clear()
                else:
                    # NewReno partial ACK (RFC 6582): the next hole is lost
                    # too; retransmit it and deflate the inflated window by
                    # the amount of new data acknowledged (plus one).
                    self.cwnd = max(self.cwnd - newly + 1.0, 1.0)
                    if self.snd_una not in self._sacked:
                        self._rescued.add(self.snd_una)
                        self._transmit(self.snd_una, retransmission=True)
                    elif self.sack_enabled:
                        self._sack_retransmit()
                    self.rto_timer.restart(self.rtt.rto)
            if ack > self.beg_seq:
                round_ended = True
                self.rounds += 1
            if self.snd_una < self.snd_nxt:
                self.rto_timer.restart(self.rtt.rto)
            else:
                self.rto_timer.cancel()
        else:
            if self.flight > 0:
                self.dupacks += 1
                if self.in_recovery:
                    # Window inflation: each dupack signals a departure, so
                    # let one new segment out (keeps the pipe from draining
                    # while holes are repaired one per RTT).
                    self.cwnd += 1.0
                    if self.sack_enabled:
                        # SACK recovery: every dupack may repair one more
                        # known hole (vs NewReno's one hole per RTT).
                        self._sack_retransmit()
                elif self.dupacks == DUPACK_THRESHOLD:
                    self._fast_retransmit(now)

        self.cc.on_ack(max(newly, 0), packet.ece_count, rtt_sample, now, round_ended)
        if round_ended:
            self.beg_seq = self.snd_nxt
        if observer is not None:
            observer.on_ack(
                self, max(newly, 0), packet.ece_count, round_ended, cwnd_before
            )

        if newly > 0 and self.on_delivered is not None:
            self.on_delivered(newly)

        self._try_send()
        self._check_complete(now)

    def _fast_retransmit(self, now: float) -> None:
        self.fast_retransmits += 1
        self.in_recovery = True
        self.recover = self.snd_nxt
        self.cc.on_loss_event(now)
        # Classic inflation start: ssthresh plus the three dupacks.
        self.cwnd = self.ssthresh + DUPACK_THRESHOLD
        self._rescued.add(self.snd_una)
        self._transmit(self.snd_una, retransmission=True)
        self.rto_timer.restart(self.rtt.rto)

    def _sack_retransmit(self) -> None:
        """Retransmit the lowest un-SACKed, un-repaired hole, if any."""
        if not self._sacked:
            return
        highest = max(self._sacked)
        seq = self.snd_una
        while seq < highest:
            if seq not in self._sacked and seq not in self._rescued:
                self._rescued.add(seq)
                self._transmit(seq, retransmission=True)
                return
            seq += 1

    def _on_rto(self) -> None:
        if not self.running or self.completed:
            return
        self.timeouts += 1
        self.consecutive_timeouts += 1
        self.rtt.backoff()
        self.in_recovery = False
        self.dupacks = 0
        self.cc.on_timeout(self.sim.now)
        # Go-back-N: everything outstanding is presumed lost.
        self.snd_nxt = self.snd_una
        self.beg_seq = self.snd_una
        self._sacked.clear()
        self._rescued.clear()
        if self.observer is not None:
            self.observer.on_rto(self)
        self.rto_timer.start(self.rtt.rto)
        self._try_send()
        if self.on_timeout_event is not None:
            self.on_timeout_event(self)

    def kick(self) -> None:
        """Re-run the send loop (e.g. after the shared pool was refilled).

        A sender that had drained an exhausted pool marks itself completed;
        if reinjection has since returned segments to the pool, the sender
        is revived so it can carry them.
        """
        if self.completed and self.running and not self.source.exhausted:
            self.completed = False
            self.complete_time = None
        self._try_send()

    def _check_complete(self, now: float) -> None:
        if (
            not self.completed
            and self.source.exhausted
            and self.snd_una >= self.assigned
        ):
            self.completed = True
            self.complete_time = now
            self.rto_timer.cancel()


def segments_for_bytes(num_bytes: int) -> int:
    """Number of MSS-sized segments needed to carry ``num_bytes``."""
    if num_bytes <= 0:
        return 0
    return -(-num_bytes // MSS_BYTES)


__all__ = [
    "TcpSender",
    "SegmentSource",
    "FiniteSource",
    "InfiniteSource",
    "segments_for_bytes",
    "DUPACK_THRESHOLD",
    "INITIAL_CWND",
    "SOURCE_BATCH",
]

"""Tests for the TCP sender state machine."""

import math

import pytest

from repro.net.packet import ACK, DATA, Packet, make_ack_packet
from repro.mptcp.connection import MptcpConnection
from repro.transport.cc import MIN_CWND, RenoCC
from repro.transport.tcp import (
    INITIAL_CWND,
    DUPACK_THRESHOLD,
    FiniteSource,
    InfiniteSource,
    TcpSender,
    segments_for_bytes,
)


class SenderHarness:
    """A sender on host A; the test plays the receiver by hand."""

    def __init__(self, net, total_segments=10_000, cc=None, initial_cwnd=10):
        self.net = net
        self.sent = []
        forward = net.paths("A", "B")[0]
        self.reverse = net.reverse_path(forward)
        net.host("B").register(0, 0, self.sent.append)
        self.sender = TcpSender(
            net.sim,
            net.host("A"),
            0,
            0,
            forward,
            cc if cc is not None else RenoCC(),
            FiniteSource(total_segments),
        )
        self.sender.cwnd = float(initial_cwnd)

    def start(self):
        self.sender.start()
        self.net.sim.run(until=self.net.sim.now + 0.01)

    def ack(self, ack_no, ece_count=0, ts_echo=-1.0):
        """Deliver one crafted ACK to the sender and settle events."""
        packet = make_ack_packet(0, 0, ack_no, self.net.sim.now,
                                 ts_echo=ts_echo, path=self.reverse,
                                 ece_count=ece_count)
        self.net.host("B").send(packet)
        self.net.sim.run(until=self.net.sim.now + 0.01)


class TestSending:
    def test_initial_window_sent_at_start(self, two_host_net):
        h = SenderHarness(two_host_net, initial_cwnd=10)
        h.start()
        assert len(h.sent) == 10
        assert [p.seq for p in h.sent] == list(range(10))

    def test_flight_never_exceeds_cwnd(self, two_host_net):
        h = SenderHarness(two_host_net, initial_cwnd=4)
        h.start()
        assert h.sender.flight == 4

    def test_ack_opens_window(self, two_host_net):
        h = SenderHarness(two_host_net, initial_cwnd=4)
        h.start()
        h.ack(2)
        # 2 acked + slow-start growth by 2 -> window 6, una=2: sends up to 8.
        assert h.sender.snd_una == 2
        assert h.sender.snd_nxt == 8

    def test_app_limited_stops_sending(self, two_host_net):
        h = SenderHarness(two_host_net, total_segments=3, initial_cwnd=10)
        h.start()
        assert len(h.sent) == 3

    def test_data_packets_carry_timestamps(self, two_host_net):
        h = SenderHarness(two_host_net)
        h.start()
        assert all(p.ts >= 0 for p in h.sent)
        assert all(p.kind == DATA for p in h.sent)

    def test_start_twice_rejected(self, two_host_net):
        h = SenderHarness(two_host_net)
        h.start()
        with pytest.raises(RuntimeError):
            h.sender.start()


class TestSlowStart:
    def test_cwnd_grows_by_acked_segments(self, two_host_net):
        h = SenderHarness(two_host_net, initial_cwnd=4)
        h.start()
        h.ack(4)
        assert h.sender.cwnd == 8.0

    def test_rtt_estimator_fed_by_ts_echo(self, two_host_net):
        h = SenderHarness(two_host_net)
        h.start()
        send_time = h.sent[0].ts
        h.ack(2, ts_echo=send_time)
        assert h.sender.srtt is not None
        assert h.sender.srtt > 0


class TestFastRetransmit:
    def trigger(self, h):
        h.start()
        h.ack(1)  # una=1
        for _ in range(DUPACK_THRESHOLD):
            h.ack(1)  # three dups

    def test_three_dupacks_retransmit_head(self, two_host_net):
        h = SenderHarness(two_host_net, initial_cwnd=8)
        self.trigger(h)
        assert h.sender.fast_retransmits == 1
        retransmitted = [p for p in h.sent if p.seq == 1]
        assert len(retransmitted) == 2  # original + retransmission

    def test_window_halved_on_loss(self, two_host_net):
        h = SenderHarness(two_host_net, initial_cwnd=8)
        self.trigger(h)
        # ssthresh = flight/2; window then inflates by the dupacks.
        assert h.sender.ssthresh <= 8
        assert h.sender.in_recovery

    def test_two_dupacks_do_nothing(self, two_host_net):
        h = SenderHarness(two_host_net, initial_cwnd=8)
        h.start()
        h.ack(1)
        h.ack(1)
        h.ack(1)
        assert h.sender.fast_retransmits == 0

    def test_full_ack_exits_recovery_at_ssthresh(self, two_host_net):
        h = SenderHarness(two_host_net, initial_cwnd=8)
        self.trigger(h)
        recover = h.sender.recover
        h.ack(recover)
        assert not h.sender.in_recovery
        # Deflated back near ssthresh (plus this ACK's CA growth), well
        # below the pre-loss window of 8+.
        assert h.sender.ssthresh <= h.sender.cwnd < 8

    def test_partial_ack_retransmits_next_hole(self, two_host_net):
        h = SenderHarness(two_host_net, initial_cwnd=8)
        self.trigger(h)
        h.ack(3)  # partial: still below recover
        assert h.sender.in_recovery
        assert any(p.seq == 3 for p in h.sent if p.ts > 0)
        assert h.sender.retransmissions >= 2

    def test_dupacks_inflate_window(self, two_host_net):
        h = SenderHarness(two_host_net, initial_cwnd=8)
        self.trigger(h)
        before = h.sender.cwnd
        h.ack(1)  # one more dup
        assert h.sender.cwnd == before + 1


class TestTimeout:
    def test_rto_fires_without_acks(self, two_host_net):
        h = SenderHarness(two_host_net, initial_cwnd=4)
        h.sender.start()
        two_host_net.sim.run(until=1.5)  # initial RTO is 1 s
        assert h.sender.timeouts >= 1
        assert h.sender.cwnd == 1.0

    def test_go_back_n_resends_from_una(self, two_host_net):
        h = SenderHarness(two_host_net, initial_cwnd=4)
        h.sender.start()
        two_host_net.sim.run(until=1.5)
        resent = [p.seq for p in h.sent if h.sent.index(p) >= 4]
        assert 0 in resent

    def test_backoff_doubles_rto(self, two_host_net):
        h = SenderHarness(two_host_net, initial_cwnd=1)
        h.sender.start()
        two_host_net.sim.run(until=3.5)
        # Timeouts at ~1 s and ~3 s (doubled); not more.
        assert h.sender.timeouts == 2

    def test_ack_after_timeout_resumes(self, two_host_net):
        h = SenderHarness(two_host_net, initial_cwnd=4)
        h.sender.start()
        two_host_net.sim.run(until=1.5)
        h.ack(4)
        assert h.sender.snd_una == 4
        assert h.sender.cwnd > 1.0


class TestCompletion:
    def test_complete_when_all_acked(self, two_host_net):
        h = SenderHarness(two_host_net, total_segments=5, initial_cwnd=10)
        h.start()
        h.ack(5)
        assert h.sender.completed
        assert 0.01 < h.sender.complete_time <= two_host_net.sim.now
        assert not h.sender.rto_timer.armed

    def test_not_complete_with_outstanding(self, two_host_net):
        h = SenderHarness(two_host_net, total_segments=5, initial_cwnd=10)
        h.start()
        h.ack(4)
        assert not h.sender.completed

    def test_stop_cancels_timer(self, two_host_net):
        h = SenderHarness(two_host_net)
        h.start()
        h.sender.stop()
        assert not h.sender.rto_timer.armed
        two_host_net.sim.run(until=5.0)
        assert h.sender.timeouts == 0


class TestRounds:
    def test_round_counted_when_beg_seq_passed(self, two_host_net):
        h = SenderHarness(two_host_net, initial_cwnd=4)
        h.start()
        assert h.sender.rounds == 0
        h.ack(1)
        assert h.sender.rounds == 1
        h.ack(3)  # still within the new round's window
        assert h.sender.rounds == 1

    def test_instant_rate_zero_before_rtt(self, two_host_net):
        h = SenderHarness(two_host_net)
        h.start()
        assert h.sender.instant_rate == 0.0

    def test_instant_rate_after_sample(self, two_host_net):
        h = SenderHarness(two_host_net)
        h.start()
        h.ack(2, ts_echo=h.sent[0].ts)
        assert h.sender.instant_rate == pytest.approx(
            h.sender.cwnd / h.sender.srtt
        )


class TestSources:
    def test_finite_source_grants_exactly_total(self):
        source = FiniteSource(10)
        assert source.take(16) == 10
        assert source.take(16) == 0
        assert source.exhausted

    def test_finite_source_partial_grants(self):
        source = FiniteSource(20)
        assert source.take(16) == 16
        assert source.take(16) == 4
        assert source.exhausted

    def test_infinite_source_never_exhausts(self):
        source = InfiniteSource()
        assert source.take(16) == 16
        assert not source.exhausted

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            FiniteSource(-1)

    def test_segments_for_bytes(self):
        assert segments_for_bytes(0) == 0
        assert segments_for_bytes(1) == 1
        assert segments_for_bytes(1460) == 1
        assert segments_for_bytes(1461) == 2
        assert segments_for_bytes(64_000) == 44


class TestEndToEnd:
    def test_transfer_completes_and_counts_bytes(self, two_host_net):
        flow = MptcpConnection(
            two_host_net, "A", "B", two_host_net.paths("A", "B"),
            scheme="tcp", size_bytes=1_000_000,
        )
        flow.start()
        two_host_net.sim.run(until=1.0)
        assert flow.completed
        assert flow.delivered_bytes >= 1_000_000
        assert flow.goodput_bps() > 100e6

    def test_goodput_zero_before_start(self, two_host_net):
        flow = MptcpConnection(
            two_host_net, "A", "B", two_host_net.paths("A", "B"),
            scheme="tcp", size_bytes=1000,
        )
        assert flow.goodput_bps() == 0.0

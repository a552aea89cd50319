"""Tests for the receiver: reordering, delayed ACKs, ECN echo modes."""

import pytest

from repro.net.packet import Packet, DATA
from repro.transport.receiver import (
    DELAYED_ACK_EVERY,
    XMP_MAX_CE_PER_ACK,
    EchoMode,
    Receiver,
)


class Harness:
    """A receiver on host B whose ACKs are captured at host A."""

    def __init__(self, net, echo_mode=EchoMode.XMP):
        self.net = net
        self.acks = []
        forward = net.paths("A", "B")[0]
        reverse = net.reverse_path(forward)
        net.host("A").register(0, 0, self.acks.append)
        self.receiver = Receiver(
            net.sim,
            net.host("B"),
            0,
            0,
            reverse,
            echo_mode=echo_mode,
        )

    def deliver(self, seq, ce=False, ts=None):
        """Hand a data packet directly to the receiver."""
        packet = Packet(
            DATA, 1500, 0, 0, seq=seq,
            ts=self.net.sim.now if ts is None else ts, ect=True, ce=ce,
        )
        packet.hop = 99  # pretend it traversed its path
        self.receiver.receive(packet)

    def run(self):
        self.net.sim.run()
        return self.acks


class TestCumulativeAck:
    def test_in_order_delivery_advances_rcv_nxt(self, two_host_net):
        h = Harness(two_host_net)
        for seq in range(4):
            h.deliver(seq)
        acks = h.run()
        assert acks[-1].ack == 4

    def test_acks_every_second_packet(self, two_host_net):
        h = Harness(two_host_net)
        for seq in range(6):
            h.deliver(seq)
        acks = h.run()
        assert [a.ack for a in acks] == [2, 4, 6]

    def test_delack_timer_flushes_odd_packet(self, two_host_net):
        h = Harness(two_host_net)
        h.deliver(0)
        acks = h.run()
        assert [a.ack for a in acks] == [1]

    def test_out_of_order_acks_immediately_with_old_ack(self, two_host_net):
        h = Harness(two_host_net)
        h.deliver(0)
        h.deliver(2)  # hole at 1 -> immediate dup-style ACK
        acks = h.run()
        assert acks[0].ack == 1

    def test_hole_fill_jumps_cumulative_ack(self, two_host_net):
        h = Harness(two_host_net)
        h.deliver(0)
        h.deliver(2)
        h.deliver(3)
        h.deliver(1)  # fills the hole
        acks = h.run()
        assert acks[-1].ack == 4

    def test_duplicate_segment_triggers_immediate_ack(self, two_host_net):
        h = Harness(two_host_net)
        h.deliver(0)
        h.deliver(1)
        h.deliver(0)  # spurious retransmission
        acks = h.run()
        assert len(acks) >= 2
        assert acks[-1].ack == 2
        assert h.receiver.duplicates_received == 1


class TestTimestampEcho:
    def test_echoes_earliest_unacked_timestamp(self, two_host_net):
        h = Harness(two_host_net)
        h.deliver(0, ts=1.25)
        h.deliver(1, ts=1.5)
        acks = h.run()
        assert acks[0].ts_echo == 1.25


class TestXmpEcho:
    def test_ce_count_returned_exactly(self, two_host_net):
        h = Harness(two_host_net, echo_mode=EchoMode.XMP)
        h.deliver(0, ce=True)
        h.deliver(1, ce=True)
        acks = h.run()
        assert acks[0].ece_count == 2

    def test_clean_packets_echo_zero(self, two_host_net):
        h = Harness(two_host_net, echo_mode=EchoMode.XMP)
        h.deliver(0)
        h.deliver(1)
        acks = h.run()
        assert acks[0].ece_count == 0

    def test_delayed_ack_pairs_carry_two_ces(self, two_host_net):
        # With one ACK per two packets, four straight CE marks ride out as
        # two ACKs of two CEs each — no marks lost, none over the cap.
        h = Harness(two_host_net, echo_mode=EchoMode.XMP)
        for seq in range(4):
            h.deliver(seq, ce=True)
        acks = h.run()
        assert [a.ece_count for a in acks] == [2, 2]

    def test_encoding_caps_at_three(self, two_host_net):
        # If CEs ever pile up past 3 (deep reordering), the two-bit field
        # carries 3 and the rest spill into the next ACK.
        h = Harness(two_host_net, echo_mode=EchoMode.XMP)
        h.receiver._pending_ce = 5
        h.deliver(0)
        h.deliver(1)  # forces an ACK
        h.deliver(2)
        h.deliver(3)
        acks = h.run()
        assert acks[0].ece_count == XMP_MAX_CE_PER_ACK
        assert sum(a.ece_count for a in acks) == 5

    def test_no_ce_lost_across_many_packets(self, two_host_net):
        h = Harness(two_host_net, echo_mode=EchoMode.XMP)
        for seq in range(20):
            h.deliver(seq, ce=True)
        acks = h.run()
        assert sum(a.ece_count for a in acks) == 20
        assert max(a.ece_count for a in acks) <= XMP_MAX_CE_PER_ACK


class TestDctcpEcho:
    def test_ce_state_change_forces_ack(self, two_host_net):
        h = Harness(two_host_net, echo_mode=EchoMode.DCTCP)
        h.deliver(0, ce=True)  # state change False -> True: immediate ACK
        acks = h.run()
        assert acks[0].ece_count == 1

    def test_exact_marked_count_carried(self, two_host_net):
        h = Harness(two_host_net, echo_mode=EchoMode.DCTCP)
        h.deliver(0, ce=True)
        h.deliver(1, ce=True)  # no state change; delayed-ack pair
        acks = h.run()
        assert sum(a.ece_count for a in acks) == 2


class TestClassicEcho:
    def test_single_bit_semantics(self, two_host_net):
        h = Harness(two_host_net, echo_mode=EchoMode.CLASSIC)
        h.deliver(0, ce=True)
        h.deliver(1, ce=True)
        acks = h.run()
        assert acks[0].ece_count == 1  # "congestion seen", not a count


class TestLifecycle:
    def test_close_unregisters(self, two_host_net):
        h = Harness(two_host_net)
        h.receiver.close()
        # A late data packet is now unclaimed rather than crashing.
        packet = Packet(DATA, 1500, 0, 0, seq=0, path=two_host_net.paths("A", "B")[0])
        two_host_net.host("A").send(packet)
        two_host_net.sim.run()
        assert two_host_net.host("B").packets_unclaimed == 1

    def test_counters(self, two_host_net):
        h = Harness(two_host_net)
        h.deliver(0, ce=True)
        h.deliver(1)
        h.run()
        assert h.receiver.segments_received == 2
        assert h.receiver.ce_received == 1
        assert h.receiver.acks_sent >= 1


class TestAckJitter:
    def test_jittered_run_matches_its_pinned_flow_records(self):
        """A jittered ACK is posted without a cancellation handle.  That
        takes the same sequence number a handled event would, so event
        order, and every flow record below, must not move."""
        from repro.mptcp.connection import MptcpConnection
        from repro.topology.bottleneck import build_single_bottleneck

        net = build_single_bottleneck(num_pairs=3)
        conns = [
            MptcpConnection(
                net, net.source(i), net.sink(i), [net.flow_path(i)] * 2,
                scheme="xmp", size_bytes=size, ack_jitter=30e-6,
            )
            for i, size in enumerate([200_000, 400_000, 20_000_000])
        ]
        for conn in conns:
            conn.start()
        net.sim.run(until=0.01)
        assert net.sim.events_processed == 7307
        records = [
            (
                conn.complete_time,
                conn.delivered_segments,
                sum(s.sender.segments_sent for s in conn.subflows),
                sum(cc.reductions for cc in conn.coupling.controllers),
            )
            for conn in conns
        ]
        assert records == [
            (0.006020434009259711, 137, 137, 11),
            (0.008485995565826323, 274, 274, 13),
            (None, 336, 356, 15),
        ]

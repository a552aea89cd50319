"""Tests for the (optional, simplified) SACK implementation."""

import pytest

from repro.mptcp.connection import MptcpConnection
from repro.net.packet import Packet, DATA, make_ack_packet
from repro.topology.bottleneck import build_single_bottleneck
from repro.transport.cc import RenoCC
from repro.transport.receiver import EchoMode, Receiver
from repro.transport.tcp import FiniteSource, TcpSender


class ReceiverHarness:
    def __init__(self, net):
        self.net = net
        self.acks = []
        forward = net.paths("A", "B")[0]
        net.host("A").register(0, 0, self.acks.append)
        self.receiver = Receiver(
            net.sim, net.host("B"), 0, 0, net.reverse_path(forward),
            echo_mode=EchoMode.CLASSIC, sack_enabled=True,
        )

    def deliver(self, seq):
        packet = Packet(DATA, 1500, 0, 0, seq=seq, ts=self.net.sim.now)
        packet.hop = 99
        self.receiver.receive(packet)

    def run(self):
        self.net.sim.run()
        return self.acks


class TestReceiverSackBlocks:
    def test_no_blocks_when_in_order(self, two_host_net):
        h = ReceiverHarness(two_host_net)
        h.deliver(0)
        h.deliver(1)
        acks = h.run()
        assert all(a.sack == () for a in acks)

    def test_single_block_reported(self, two_host_net):
        h = ReceiverHarness(two_host_net)
        h.deliver(0)
        h.deliver(2)
        h.deliver(3)
        acks = h.run()
        assert acks[-1].sack == ((2, 4),)

    def test_multiple_blocks_highest_first(self, two_host_net):
        h = ReceiverHarness(two_host_net)
        h.deliver(0)
        for seq in (2, 5, 6, 9):
            h.deliver(seq)
        acks = h.run()
        blocks = acks[-1].sack
        assert blocks == ((9, 10), (5, 7), (2, 3))

    def test_at_most_three_blocks(self, two_host_net):
        h = ReceiverHarness(two_host_net)
        h.deliver(0)
        for seq in (2, 4, 6, 8, 10):
            h.deliver(seq)
        acks = h.run()
        assert len(acks[-1].sack) == 3

    def test_blocks_cleared_once_holes_fill(self, two_host_net):
        h = ReceiverHarness(two_host_net)
        h.deliver(0)
        h.deliver(2)
        h.deliver(1)
        acks = h.run()
        assert acks[-1].sack == ()
        assert acks[-1].ack == 3


class SenderHarness:
    def __init__(self, net, total=10_000, initial_cwnd=10):
        self.net = net
        self.sent = []
        forward = net.paths("A", "B")[0]
        self.reverse = net.reverse_path(forward)
        net.host("B").register(0, 0, self.sent.append)
        self.sender = TcpSender(
            net.sim, net.host("A"), 0, 0, forward, RenoCC(),
            FiniteSource(total), sack_enabled=True,
        )
        self.sender.cwnd = float(initial_cwnd)

    def start(self):
        self.sender.start()
        self.net.sim.run(until=self.net.sim.now + 0.01)

    def ack(self, ack_no, sack=()):
        packet = make_ack_packet(0, 0, ack_no, self.net.sim.now,
                                 ts_echo=-1.0, path=self.reverse, sack=sack)
        self.net.host("B").send(packet)
        self.net.sim.run(until=self.net.sim.now + 0.01)


class TestSenderSackRecovery:
    def test_scoreboard_updates(self, two_host_net):
        h = SenderHarness(two_host_net)
        h.start()
        h.ack(1, sack=((3, 5),))
        assert h.sender._sacked == {3, 4}

    def test_repairs_multiple_holes_per_window(self, two_host_net):
        # Segments 1, 3, 5 lost; 2, 4, 6.. sacked.  NewReno repairs one
        # hole per RTT; SACK one per dupack.
        h = SenderHarness(two_host_net, initial_cwnd=8)
        h.start()
        h.ack(1)
        h.ack(1, sack=((2, 3),))
        h.ack(1, sack=((2, 3), (4, 5),))
        h.ack(1, sack=((2, 3), (4, 5), (6, 7)))  # third dup: fast rtx of 1
        assert h.sender.in_recovery
        h.ack(1, sack=((2, 3), (4, 5), (6, 7)))  # dup: repairs hole 3
        h.ack(1, sack=((2, 3), (4, 5), (6, 7)))  # dup: repairs hole 5
        retransmitted = [p.seq for p in h.sent[8:]]
        assert 1 in retransmitted
        assert 3 in retransmitted
        assert 5 in retransmitted

    def test_each_hole_retransmitted_once(self, two_host_net):
        h = SenderHarness(two_host_net, initial_cwnd=8)
        h.start()
        h.ack(1)
        for _ in range(6):
            h.ack(1, sack=((2, 3),))
        retransmissions = [p.seq for p in h.sent[8:]]
        assert retransmissions.count(1) == 1

    def test_scoreboard_cleared_on_recovery_exit(self, two_host_net):
        h = SenderHarness(two_host_net, initial_cwnd=8)
        h.start()
        h.ack(1)
        for _ in range(3):
            h.ack(1, sack=((2, 3),))
        assert h.sender.in_recovery
        h.ack(h.sender.recover)
        assert not h.sender.in_recovery
        assert h.sender._sacked == set()

    def test_scoreboard_cleared_on_rto(self, two_host_net):
        h = SenderHarness(two_host_net, initial_cwnd=4)
        h.sender.start()
        h.net.sim.run(until=0.001)
        h.ack(0, sack=((2, 3),))
        two = h.sender
        h.net.sim.run(until=1.5)  # initial RTO
        assert two.timeouts >= 1
        assert two._sacked == set()


class TestSackEndToEnd:
    def test_sack_speeds_up_lossy_transfer(self):
        """TCP over a DropTail bottleneck with slow-start overshoot: the
        SACK flow recovers burst losses in far fewer RTTs."""

        def run(sack):
            net = build_single_bottleneck(
                num_pairs=1, marking_threshold=None, queue_capacity=40
            )
            conn = MptcpConnection(
                net, "S0", "D0", [net.flow_path(0)],
                scheme="tcp", size_bytes=10_000_000, sack=sack,
            )
            conn.start()
            net.sim.run(until=0.5)
            return conn.delivered_bytes, conn.subflows[0].sender.timeouts

        without_bytes, _ = run(False)
        with_bytes, _ = run(True)
        assert with_bytes >= without_bytes

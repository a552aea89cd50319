"""Edge-case tests filling coverage gaps across modules."""

import pytest

from repro.cli import main
from repro.metrics.stats import percentile
from repro.mptcp.connection import MptcpConnection
from repro.net.link import Link
from repro.net.node import Node
from repro.net.packet import DATA, Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.topology.bottleneck import build_single_bottleneck
from repro.traffic.incast import CONCURRENT_JOBS, SERVERS_PER_JOB
from repro.traffic.factory import TransferFactory
from repro.workloads.partition_aggregate import PartitionAggregatePattern


class Sink(Node):
    __slots__ = ("count",)

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.count = 0

    def receive(self, packet):
        self.count += 1


class TestLinkFailureCycles:
    def test_counters_freeze_while_down(self):
        sim = Simulator()
        link = Link(sim, "L", Sink(sim, "a"), Sink(sim, "b"), 1e9, 1e-6,
                    DropTailQueue(10))
        link.enqueue(Packet(DATA, 1500, 0, 0))
        sim.run()
        sent_before = link.bytes_transmitted
        link.set_down()
        link.enqueue(Packet(DATA, 1500, 0, 0))
        sim.run()
        assert link.bytes_transmitted == sent_before
        assert link.bytes_offered == 3000  # offered still counted

    def test_up_down_up_cycle_delivers_again(self):
        sim = Simulator()
        dst = Sink(sim, "b")
        link = Link(sim, "L", Sink(sim, "a"), dst, 1e9, 1e-6, DropTailQueue(10))
        link.enqueue(Packet(DATA, 1500, 0, 0))
        sim.run()
        link.set_down()
        link.set_up()
        link.enqueue(Packet(DATA, 1500, 0, 0))
        sim.run()
        assert dst.count == 2

    def test_busy_flag_clears_after_down_during_tx(self):
        sim = Simulator()
        link = Link(sim, "L", Sink(sim, "a"), Sink(sim, "b"), 1e9, 1e-6,
                    DropTailQueue(10))
        link.enqueue(Packet(DATA, 1500, 0, 0))
        link.enqueue(Packet(DATA, 1500, 0, 0))
        sim.schedule(1e-6, link.set_down)
        sim.run()
        assert not link.busy  # transmitter idle, not wedged


class TestPercentileStability:
    def test_identical_values_exact(self):
        # Regression: interpolation must return the exact common value.
        assert percentile([201.0, 201.0], 1.5) == 201.0

    def test_two_values_midpoint(self):
        assert percentile([1.0, 2.0], 50) == 1.5


class TestIncastAges:
    def test_unfinished_ages_reported(self, two_host_net):
        # Not enough time for any job: all 8 jobs stay active.
        from repro.topology.fattree import build_fattree
        import random

        net = build_fattree(k=4)
        factory = TransferFactory(net, "tcp", rng=random.Random(0))
        pattern = PartitionAggregatePattern(
            factory, factory, net.host_names, fan_in=SERVERS_PER_JOB,
            concurrent_jobs=CONCURRENT_JOBS, rng=random.Random(1),
        )
        pattern.start()
        net.sim.run(until=0.0005)
        ages = pattern.unfinished_ages(0.0005)
        assert len(ages) == 8
        assert all(0 <= age <= 0.0005 for age in ages)


class TestSenderKickEdge:
    def test_kick_on_fresh_sender_is_safe(self, two_host_net):
        conn = MptcpConnection(
            two_host_net, "A", "B", two_host_net.paths("A", "B"),
            scheme="xmp", size_bytes=10_000,
        )
        conn.subflows[0].sender.kick()  # not yet started: no-op
        conn.start()
        two_host_net.sim.run(until=0.5)
        assert conn.completed

    def test_stale_ack_ignored(self, two_host_net):
        from repro.net.packet import make_ack_packet
        from repro.transport.cc import RenoCC
        from repro.transport.tcp import FiniteSource, TcpSender

        net = two_host_net
        forward = net.paths("A", "B")[0]
        reverse = net.reverse_path(forward)
        net.host("B").register(0, 0, lambda p: None)
        sender = TcpSender(net.sim, net.host("A"), 0, 0, forward,
                           RenoCC(), FiniteSource(100))
        sender.start()
        net.sim.run(until=0.001)
        # Advance, then deliver an older ACK.
        net.host("B").send(make_ack_packet(0, 0, 5, net.sim.now, -1.0, reverse))
        net.sim.run(until=0.002)
        assert sender.snd_una == 5
        net.host("B").send(make_ack_packet(0, 0, 2, net.sim.now, -1.0, reverse))
        net.sim.run(until=0.003)
        assert sender.snd_una == 5
        assert sender.dupacks == 0  # stale, not duplicate


class TestCliExport:
    def test_export_command(self, tmp_path, capsys):
        assert main(["export", str(tmp_path / "out"), "--duration", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "summary.json" in out
        assert (tmp_path / "out" / "flows.csv").exists()


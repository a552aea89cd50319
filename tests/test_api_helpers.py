"""Tests for public-API helper methods not covered elsewhere."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.fig4_traffic_shifting import Fig4Config, Fig4Result
from repro.experiments.fig7_rate_compensation import Fig7Config, Fig7Result
from repro.metrics.series import TimeSeries
from repro.mptcp.connection import MptcpConnection
from repro.transport.receiver import EchoMode, Receiver


class TestConnectionIntrospection:
    def test_subflow_rates_before_start_are_zero(self, two_host_net):
        conn = MptcpConnection(
            two_host_net, "A", "B", two_host_net.paths("A", "B"), scheme="xmp"
        )
        senders = [subflow.sender for subflow in conn.subflows]
        assert [sender.instant_rate for sender in senders] == [0.0] * len(senders)
        assert [sender.srtt for sender in senders] == [None] * len(senders)

    def test_subflow_rates_reflect_activity(self, two_host_net):
        conn = MptcpConnection(
            two_host_net, "A", "B", two_host_net.paths("A", "B"), scheme="xmp"
        )
        conn.start()
        two_host_net.sim.run(until=0.05)
        senders = [subflow.sender for subflow in conn.subflows]
        assert any(sender.instant_rate > 0 for sender in senders)
        assert any(sender.srtt is not None and sender.srtt > 0 for sender in senders)

    def test_repr_is_informative(self, two_host_net):
        conn = MptcpConnection(
            two_host_net, "A", "B", two_host_net.paths("A", "B"), scheme="xmp"
        )
        text = repr(conn)
        assert "xmp" in text and "A->B" in text


def _rates(name, times, rates):
    series = TimeSeries([name])
    for time, rate in zip(times, rates):
        series.append(time, [rate])
    return series


class TestResultHelpers:
    def test_fig4_mean_normalized_empty_window(self):
        result = Fig4Result(config=Fig4Config())
        result.series = _rates("flow2-1", [1.0], [150e6])
        assert result.mean_normalized("flow2-1", 5.0, 6.0) == 0.0
        assert result.mean_normalized("flow2-1", 0.5, 1.5) == pytest.approx(0.5)

    def test_fig4_normalized_series(self):
        result = Fig4Result(config=Fig4Config())
        result.series = _rates("flow2-1", [1.0, 2.0], [300e6, 150e6])
        assert result.normalized("flow2-1") == pytest.approx([1.0, 0.5])

    def test_fig7_mean_rate_empty(self):
        result = Fig7Result(config=Fig7Config())
        result.series = _rates("flow1-1", [], [])
        assert result.normalized_mean("flow1-1", 0.0, 1.0) == 0.0

    def test_fig7_normalized_mean_scaling(self):
        result = Fig7Result(config=Fig7Config())
        result.series = _rates("flow1-1", [1.0], [5e8])
        assert result.normalized_mean("flow1-1", 0.0, 2.0) == pytest.approx(0.5)


class TestReceiverLifecycle:
    def test_close_cancels_pending_delack(self, two_host_net):
        from repro.net.packet import DATA, Packet

        net = two_host_net
        acks = []
        net.host("A").register(0, 0, acks.append)
        receiver = Receiver(
            net.sim, net.host("B"), 0, 0,
            net.reverse_path(net.paths("A", "B")[0]),
            echo_mode=EchoMode.XMP,
        )
        packet = Packet(DATA, 1500, 0, 0, seq=0)
        packet.hop = 1
        receiver.receive(packet)  # arms the delack timer
        receiver.close()
        net.sim.run(until=0.01)
        assert acks == []  # timer cancelled, no ACK after close

    def test_jittered_acks_still_cumulative(self, two_host_net):
        from repro.net.packet import DATA, Packet

        net = two_host_net
        acks = []
        net.host("A").register(0, 0, acks.append)
        receiver = Receiver(
            net.sim, net.host("B"), 0, 0,
            net.reverse_path(net.paths("A", "B")[0]),
            echo_mode=EchoMode.XMP, ack_jitter=50e-6, jitter_seed=3,
        )
        for seq in range(10):
            packet = Packet(DATA, 1500, 0, 0, seq=seq)
            packet.hop = 1
            receiver.receive(packet)
        net.sim.run()
        assert max(a.ack for a in acks) == 10


class TestExampleSmoke:
    def test_quickstart_runs_as_script(self):
        completed = subprocess.run(
            [sys.executable, "examples/quickstart.py"],
            capture_output=True, text=True, timeout=120, cwd=Path(__file__).resolve().parents[1],
        )
        assert completed.returncode == 0
        assert "goodput" in completed.stdout
        assert "completed: True" in completed.stdout

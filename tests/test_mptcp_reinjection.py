"""Tests for connection-level reinjection after subflow path failure."""

import pytest

from repro.mptcp.connection import MptcpConnection
from repro.transport.tcp import FiniteSource
from repro.net.network import Network
from repro.net.queue import ThresholdECNQueue


def diamond_net():
    net = Network()
    a = net.add_host("A")
    b = net.add_host("B")
    queue = lambda: ThresholdECNQueue(100, 10)
    for name in ("U", "V"):
        mid = net.add_switch(name)
        net.connect(a, mid, 1e9, 20e-6, queue_factory=queue)
        net.connect(mid, b, 1e9, 20e-6, queue_factory=queue)
    return net


def path_via(net, switch_name):
    for path in net.paths("A", "B"):
        if any(link.dst.name == switch_name for link in path):
            return path
    raise AssertionError(f"no path via {switch_name}")


def start_transfer(net, reinject, size=20_000_000):
    conn = MptcpConnection(
        net, "A", "B",
        [path_via(net, "U"), path_via(net, "V")],
        scheme="xmp", size_bytes=size,
        reinject_after_timeouts=reinject,
    )
    conn.start()
    return conn


class TestReinjection:
    def test_transfer_survives_path_failure(self):
        net = diamond_net()
        conn = start_transfer(net, reinject=2)
        # Kill the U path mid-transfer.
        u_link = path_via(net, "U")[0]
        net.sim.schedule(0.02, net.set_link_pair_down, u_link)
        net.sim.run(until=8.0)
        assert conn.completed
        assert conn.subflows[0].failed
        assert not conn.subflows[1].failed

    def test_without_reinjection_transfer_stalls(self):
        net = diamond_net()
        conn = start_transfer(net, reinject=None)
        u_link = path_via(net, "U")[0]
        net.sim.schedule(0.02, net.set_link_pair_down, u_link)
        net.sim.run(until=8.0)
        # The dead subflow strands its assigned segments forever.
        assert not conn.completed
        assert conn.delivered_segments < conn.total_segments

    def test_all_bytes_delivered_exactly_once(self):
        net = diamond_net()
        conn = start_transfer(net, reinject=2, size=5_000_000)
        u_link = path_via(net, "U")[0]
        net.sim.schedule(0.01, net.set_link_pair_down, u_link)
        net.sim.run(until=8.0)
        assert conn.completed
        # Surviving subflow delivered everything the dead one did not.
        survivor = conn.subflows[1].sender
        dead = conn.subflows[0].sender
        assert survivor.delivered_segments + dead.delivered_segments >= (
            conn.total_segments
        )

    def test_no_reinjection_while_path_alive(self):
        net = diamond_net()
        conn = start_transfer(net, reinject=2, size=5_000_000)
        net.sim.run(until=4.0)
        assert conn.completed
        assert not any(s.failed for s in conn.subflows)

    def test_single_subflow_keeps_probing(self):
        # With no sibling to shift to, the subflow is never declared dead.
        net = diamond_net()
        conn = MptcpConnection(
            net, "A", "B", [path_via(net, "U")], scheme="xmp",
            size_bytes=1_000_000, reinject_after_timeouts=2,
        )
        conn.start()
        u_link = path_via(net, "U")[0]
        net.sim.schedule(0.005, net.set_link_pair_down, u_link)
        net.sim.run(until=3.0)
        assert not conn.subflows[0].failed
        assert conn.subflows[0].sender.running

    def test_recovered_path_failure_timing(self):
        # Failure after the transfer finished is a no-op.
        net = diamond_net()
        conn = start_transfer(net, reinject=2, size=500_000)
        net.sim.run(until=2.0)
        assert conn.completed
        u_link = path_via(net, "U")[0]
        net.set_link_pair_down(u_link)
        net.sim.run(until=3.0)
        assert not any(s.failed for s in conn.subflows)


class TestPoolRestitution:
    def test_restitute_returns_capacity(self):
        pool = FiniteSource(100)
        pool.take(60)
        pool.restitute(20)
        assert pool.granted == 40
        assert pool.take(100) == 60

    def test_restitute_validation(self):
        pool = FiniteSource(10)
        pool.take(5)
        with pytest.raises(ValueError):
            pool.restitute(6)
        with pytest.raises(ValueError):
            pool.restitute(-1)

    def test_exhausted_flips_back(self):
        pool = FiniteSource(10)
        pool.take(10)
        assert pool.exhausted
        pool.restitute(3)
        assert not pool.exhausted

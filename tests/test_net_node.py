"""Tests for hosts, switches and source-routed forwarding."""

import pytest

from repro.net.network import Network
from repro.net.packet import Packet, DATA


def linear_net():
    """A -- SW1 -- SW2 -- B."""
    net = Network()
    a = net.add_host("A")
    b = net.add_host("B")
    s1 = net.add_switch("SW1")
    s2 = net.add_switch("SW2")
    net.connect(a, s1, 1e9, 1e-6)
    net.connect(s1, s2, 1e9, 1e-6)
    net.connect(s2, b, 1e9, 1e-6)
    return net


class TestForwarding:
    def test_packet_travels_full_path(self):
        net = linear_net()
        path = net.paths("A", "B")[0]
        received = []
        net.host("B").register(0, 0, received.append)
        packet = Packet(DATA, 1500, 0, 0, path=path)
        net.host("A").send(packet)
        net.sim.run()
        assert received == [packet]
        assert packet.hop == len(path)

    def test_switch_counts_forwarded(self):
        net = linear_net()
        path = net.paths("A", "B")[0]
        net.host("B").register(0, 0, lambda p: None)
        net.host("A").send(Packet(DATA, 1500, 0, 0, path=path))
        net.sim.run()
        assert net.switches["SW1"].packets_forwarded == 1
        assert net.switches["SW2"].packets_forwarded == 1

    def test_forward_without_next_hop_raises(self):
        net = linear_net()
        with pytest.raises(RuntimeError):
            net.switches["SW1"].forward(Packet(DATA, 1500, 0, 0, path=()))

    @pytest.mark.parametrize("entry", ["forward", "receive", "send"])
    def test_past_the_end_of_the_path_names_node_and_packet(self, entry):
        # Every forwarding entry indexes path[hop] unguarded; running off
        # the end is the same RuntimeError, not a bare IndexError.
        net = linear_net()
        node = net.host("A") if entry == "send" else net.switches["SW1"]
        path = net.paths("A", "B")[0]
        packet = Packet(DATA, 1500, 0, 0, path=path)
        packet.hop = len(path)
        with pytest.raises(RuntimeError, match=r"^(SW1|A): packet has no next hop \(Packet") as info:
            getattr(node, entry)(packet)
        assert info.value.__cause__ is None
        assert packet.hop == len(path)


class TestHostDemux:
    def test_dispatch_by_flow_and_subflow(self):
        net = linear_net()
        path = net.paths("A", "B")[0]
        flows = {0: [], 1: []}
        net.host("B").register(5, 0, flows[0].append)
        net.host("B").register(5, 1, flows[1].append)
        net.host("A").send(Packet(DATA, 1500, 5, 1, path=path))
        net.sim.run()
        assert flows[0] == []
        assert len(flows[1]) == 1

    def test_unclaimed_packet_counted(self):
        net = linear_net()
        path = net.paths("A", "B")[0]
        net.host("A").send(Packet(DATA, 1500, 9, 9, path=path))
        net.sim.run()
        assert net.host("B").packets_unclaimed == 1

    def test_duplicate_registration_rejected(self):
        net = linear_net()
        net.host("B").register(1, 0, lambda p: None)
        with pytest.raises(ValueError):
            net.host("B").register(1, 0, lambda p: None)

    def test_unregister_then_reregister(self):
        net = linear_net()
        host = net.host("B")
        host.register(1, 0, lambda p: None)
        host.unregister(1, 0)
        host.register(1, 0, lambda p: None)

    def test_unregister_missing_is_noop(self):
        linear_net().host("B").unregister(42, 0)

    def test_delivered_counter(self):
        net = linear_net()
        path = net.paths("A", "B")[0]
        net.host("B").register(0, 0, lambda p: None)
        for _ in range(3):
            net.host("A").send(Packet(DATA, 1500, 0, 0, path=path))
        net.sim.run()
        assert net.host("B").packets_delivered == 3

    def test_multihomed_host_relays(self):
        # A path that passes *through* a host keeps forwarding (testbed
        # topologies attach hosts to two switches).
        net = Network()
        a = net.add_host("A")
        relay = net.add_host("R")
        b = net.add_host("B")
        net.connect(a, relay, 1e9, 1e-6)
        net.connect(relay, b, 1e9, 1e-6)
        path = net.paths("A", "B")[0]
        received = []
        net.host("B").register(0, 0, received.append)
        net.host("A").send(Packet(DATA, 1500, 0, 0, path=path))
        net.sim.run()
        assert len(received) == 1

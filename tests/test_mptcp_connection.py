"""Tests for MptcpConnection: striping, completion, lifecycle."""

import gc
import weakref
from collections import Counter

import pytest

from repro.mptcp.connection import MptcpConnection
from repro.mptcp.coupling import SCHEMES
from repro.net.network import Network
from repro.net.packet import MSS_BYTES, make_data_packet
from repro.net.queue import ThresholdECNQueue
from repro.topology.bottleneck import build_single_bottleneck
from repro.transport.receiver import Receiver
from repro.transport.tcp import TcpSender


def diamond_net():
    """Two equal-cost paths A -> {U,V} -> B at 1 Gbps."""
    net = Network()
    a = net.add_host("A")
    b = net.add_host("B")
    queue = lambda: ThresholdECNQueue(100, 10)
    for name in ("U", "V"):
        mid = net.add_switch(name)
        net.connect(a, mid, 1e9, 20e-6, queue_factory=queue)
        net.connect(mid, b, 1e9, 20e-6, queue_factory=queue)
    return net


class TestConstruction:
    def test_needs_a_path(self):
        net = diamond_net()
        with pytest.raises(ValueError):
            MptcpConnection(net, "A", "B", [], scheme="xmp")

    def test_one_subflow_per_path(self):
        net = diamond_net()
        conn = MptcpConnection(net, "A", "B", net.paths("A", "B"), scheme="xmp")
        assert len(conn.subflows) == 2
        assert [s.index for s in conn.subflows] == [0, 1]

    def test_subflows_share_flow_id(self):
        net = diamond_net()
        conn = MptcpConnection(net, "A", "B", net.paths("A", "B"), scheme="xmp")
        assert all(s.sender.flow == conn.flow_id for s in conn.subflows)

    def test_distinct_flow_ids_across_connections(self):
        net = diamond_net()
        c1 = MptcpConnection(net, "A", "B", net.paths("A", "B")[:1], scheme="tcp")
        c2 = MptcpConnection(net, "A", "B", net.paths("A", "B")[1:], scheme="tcp")
        assert c1.flow_id != c2.flow_id


class TestTransfer:
    def test_completes_and_counts_all_bytes(self):
        net = diamond_net()
        size = 3_000_000
        conn = MptcpConnection(net, "A", "B", net.paths("A", "B"),
                               scheme="xmp", size_bytes=size)
        conn.start()
        net.sim.run(until=2.0)
        assert conn.completed
        assert conn.delivered_bytes >= size
        assert conn.complete_time is not None

    def test_both_subflows_carry_traffic(self):
        net = diamond_net()
        conn = MptcpConnection(net, "A", "B", net.paths("A", "B"),
                               scheme="xmp", size_bytes=10_000_000)
        conn.start()
        net.sim.run(until=2.0)
        for subflow in conn.subflows:
            assert subflow.sender.delivered_segments > 0

    def test_delivered_equals_sum_of_subflows(self):
        net = diamond_net()
        conn = MptcpConnection(net, "A", "B", net.paths("A", "B"),
                               scheme="xmp", size_bytes=2_000_000)
        conn.start()
        net.sim.run(until=2.0)
        total = sum(s.sender.delivered_segments for s in conn.subflows)
        assert conn.delivered_segments == total

    def test_two_paths_beat_one_when_disjoint(self):
        # With both 1 Gbps paths usable, 2 subflows should outrun 1 by a
        # wide margin... but here both paths share A's single attachment?
        # No: A has separate links to U and V, so capacity truly doubles.
        net1 = diamond_net()
        c1 = MptcpConnection(net1, "A", "B", net1.paths("A", "B")[:1],
                             scheme="xmp", size_bytes=20_000_000)
        c1.start()
        net1.sim.run(until=2.0)
        net2 = diamond_net()
        c2 = MptcpConnection(net2, "A", "B", net2.paths("A", "B"),
                             scheme="xmp", size_bytes=20_000_000)
        c2.start()
        net2.sim.run(until=2.0)
        assert c2.goodput_bps() > 1.5 * c1.goodput_bps()

    def test_goodput_accounts_whole_lifetime(self):
        net = diamond_net()
        conn = MptcpConnection(net, "A", "B", net.paths("A", "B"),
                               scheme="xmp", size_bytes=1_000_000)
        conn.start()
        net.sim.run(until=2.0)
        duration = conn.complete_time - conn.start_time
        assert conn.goodput_bps() == pytest.approx(
            conn.delivered_bytes * 8 / duration
        )

    def test_on_complete_callback(self):
        net = diamond_net()
        seen = []
        conn = MptcpConnection(
            net, "A", "B", net.paths("A", "B"), scheme="xmp",
            size_bytes=500_000,
            on_complete=lambda c, now: seen.append((c, now)),
        )
        conn.start()
        net.sim.run(until=2.0)
        assert seen and seen[0][0] is conn

    def test_infinite_connection_never_completes(self):
        net = diamond_net()
        conn = MptcpConnection(net, "A", "B", net.paths("A", "B"), scheme="xmp")
        conn.start()
        net.sim.run(until=0.05)
        assert not conn.completed
        assert conn.delivered_segments > 0


class TestLifecycle:
    def test_add_subflow_while_running(self):
        net = diamond_net()
        paths = net.paths("A", "B")
        conn = MptcpConnection(net, "A", "B", paths[:1], scheme="xmp")
        conn.start()
        net.sim.run(until=0.01)
        before = conn.subflows[0].sender.delivered_segments
        subflow = conn.add_subflow(paths[1], start=True)
        net.sim.run(until=0.05)
        assert subflow.sender.delivered_segments > 0
        assert conn.subflows[0].sender.delivered_segments > before

    def test_start_is_idempotent_for_started_subflows(self):
        net = diamond_net()
        conn = MptcpConnection(net, "A", "B", net.paths("A", "B"), scheme="xmp")
        conn.start()
        conn.add_subflow(net.paths("A", "B")[0])
        conn.start()  # only starts the new subflow
        assert all(s.sender.running for s in conn.subflows)

    def test_stop_halts_transmission(self):
        net = diamond_net()
        conn = MptcpConnection(net, "A", "B", net.paths("A", "B"), scheme="xmp")
        conn.start()
        net.sim.run(until=0.01)
        conn.stop()
        delivered = conn.delivered_segments
        net.sim.run(until=0.05)
        assert conn.delivered_segments == delivered

    def test_close_unregisters_endpoints(self):
        net = diamond_net()
        conn = MptcpConnection(net, "A", "B", net.paths("A", "B"), scheme="xmp")
        conn.start()
        net.sim.run(until=0.01)
        conn.close()
        # The same flow id is re-registrable after close.
        for index in range(len(conn.subflows)):
            net.host("A").register(conn.flow_id, index, lambda packet: None)
            net.host("B").register(conn.flow_id, index, lambda packet: None)


class TestSchemes:
    @pytest.mark.parametrize("scheme", ["xmp", "lia", "olia", "dctcp", "tcp"])
    def test_every_scheme_transfers(self, scheme):
        net = diamond_net()
        paths = net.paths("A", "B")
        count = 2 if scheme in ("xmp", "lia", "olia") else 1
        conn = MptcpConnection(net, "A", "B", paths[:count],
                               scheme=scheme, size_bytes=1_000_000)
        conn.start()
        net.sim.run(until=2.0)
        assert conn.completed, scheme


class TestRelease:
    """Completion is terminal: a finished connection lets go of its state."""

    #: Each is a path a new back-edge from a flow's endpoints could hide on.
    VARIANTS = {
        "plain": {},
        "reinject": {"reinject_after_timeouts": 2},
        "sack": {"sack": True},
        "ack-jitter": {"ack_jitter": 20e-6},
        "late-subflow": {},
    }

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_finished_connections_and_senders_are_garbage(self, scheme, variant):
        """With the collector off for the whole run, every finished flow is
        already gone: reference counting freed it at completion."""
        # The last flow cannot finish within the 20 ms run.
        sizes = [30_000, 60_000, 90_000, 50_000_000]
        unsettled = {}
        refs = []
        was_enabled = gc.isenabled()
        gc.collect()  # earlier tests' topologies, so the census below is ours
        gc.disable()
        try:
            net = build_single_bottleneck(num_pairs=4)
            for index, size in enumerate(sizes):
                conn = MptcpConnection(
                    net, net.source(index), net.sink(index), [net.flow_path(index)] * 2,
                    scheme=scheme, size_bytes=size,
                    on_complete=lambda c, now: unsettled.__setitem__(
                        c.flow_id, sum(not s.sender.settled for s in c.subflows)
                    ),
                    **self.VARIANTS[variant],
                )
                conn.start()
                refs.append((index, conn.flow_id, weakref.ref(conn)))
            del conn
            if variant == "late-subflow":
                net.sim.run(until=100e-6)
                for index, _, conn_ref in refs:
                    conn_ref().add_subflow(net.flow_path(index), start=True)
            subflows = 3 if variant == "late-subflow" else 2
            controllers = {
                flow_id: [weakref.ref(cc) for cc in conn_ref().coupling.controllers]
                for _, flow_id, conn_ref in refs
            }
            net.sim.run(until=0.02)
            assert len(unsettled) == 3
            # Slotted endpoints take no weakref: find the live ones by census.
            live = Counter(
                (type(obj), obj.flow)
                for obj in gc.get_objects()
                if isinstance(obj, (TcpSender, Receiver)) and obj.sim is net.sim
            )
            # Read before the collector is back on: its first pass would
            # free what a cycle still held.
            for _, flow_id, conn_ref in refs:
                finished = flow_id in unsettled
                assert (conn_ref() is None) == finished, flow_id
                assert live[TcpSender, flow_id] == (0 if finished else subflows), flow_id
                # close() keeps exactly the receivers of unsettled subflows.
                kept = unsettled[flow_id] if finished else subflows
                assert live[Receiver, flow_id] == kept, flow_id
                dead = [ref() is None for ref in controllers[flow_id]]
                assert dead == [finished] * subflows, flow_id
        finally:
            if was_enabled:
                gc.enable()

    def _completed(self, net, scheme, size_bytes):
        conn = MptcpConnection(net, "S0", "D0", [net.flow_path(0)],
                               scheme=scheme, size_bytes=size_bytes)
        conn.start()
        net.sim.run(until=10.0)
        assert conn.completed
        return conn

    def _late_duplicate(self, net, conn):
        """Replay segment 0 of the finished subflow, as a late copy would arrive."""
        net.host("S0").send(
            make_data_packet(conn.flow_id, 0, 0, net.sim.now, net.flow_path(0), False)
        )
        net.sim.run(until=net.sim.now + 0.01)

    def test_subflow_that_retransmitted_keeps_its_receiver(self):
        net = build_single_bottleneck(num_pairs=1, bottleneck_rate_bps=100e6, rtt=1e-3,
                                      marking_threshold=None, queue_capacity=5)
        conn = self._completed(net, "tcp", 2_000_000)
        sender, receiver = conn.subflows[0].sender, conn.subflows[0].receiver
        assert sender.retransmissions + sender.timeouts > 0
        assert not sender.settled
        acks, duplicates = receiver.acks_sent, receiver.duplicates_received
        self._late_duplicate(net, conn)
        assert receiver.duplicates_received == duplicates + 1
        assert receiver.acks_sent == acks + 1  # still ACKed, as before completion
        assert net.host("D0").packets_unclaimed == 0

    def test_settled_subflow_releases_its_receiver(self):
        net = build_single_bottleneck(num_pairs=1)
        conn = self._completed(net, "xmp", 100_000)
        assert conn.subflows[0].sender.settled
        acks = conn.subflows[0].receiver.acks_sent
        self._late_duplicate(net, conn)
        assert net.host("D0").packets_unclaimed == 1
        assert conn.subflows[0].receiver.acks_sent == acks

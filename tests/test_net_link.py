"""Tests for link serialization, propagation and failure behaviour."""

import pytest

from repro.net.link import Link
from repro.net.network import Network
from repro.net.node import Host, Node
from repro.net.packet import Packet, DATA
from repro.net.queue import DropTailQueue
from repro.sim.probe import fresh, probing, requested


class Sink(Node):
    """Records packet arrivals with timestamps."""

    __slots__ = ("arrivals",)

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.arrivals = []

    def receive(self, packet):
        self.arrivals.append((self.sim.now, packet))


def make_link(sim, rate=1e9, delay=10e-6, capacity=100):
    src = Sink(sim, "src")
    dst = Sink(sim, "dst")
    return Link(sim, "L", src, dst, rate, delay, DropTailQueue(capacity)), dst


def data(size=1500):
    return Packet(DATA, size, 0, 0)


class TestTiming:
    def test_single_packet_arrival_time(self, sim):
        # serialization (12 us at 1 Gbps for 1500 B) + propagation (10 us).
        link, dst = make_link(sim)
        link.enqueue(data())
        sim.run()
        assert len(dst.arrivals) == 1
        assert dst.arrivals[0][0] == pytest.approx(22e-6)

    def test_back_to_back_packets_serialize(self, sim):
        link, dst = make_link(sim)
        link.enqueue(data())
        link.enqueue(data())
        sim.run()
        t1, t2 = dst.arrivals[0][0], dst.arrivals[1][0]
        assert t2 - t1 == pytest.approx(12e-6)  # one serialization time apart

    def test_rate_determines_serialization(self, sim):
        link, dst = make_link(sim, rate=100e6)  # 10x slower
        link.enqueue(data())
        sim.run()
        assert dst.arrivals[0][0] == pytest.approx(120e-6 + 10e-6)

    def test_small_packet_serializes_faster(self, sim):
        link, dst = make_link(sim)
        link.enqueue(data(size=40))
        sim.run()
        assert dst.arrivals[0][0] == pytest.approx(40 * 8 / 1e9 + 10e-6)

    def test_fifo_delivery_order(self, sim):
        link, dst = make_link(sim)
        packets = [data() for _ in range(5)]
        for p in packets:
            link.enqueue(p)
        sim.run()
        assert [p for _, p in dst.arrivals] == packets

    def test_one_serialization_event_per_packet(self, sim):
        # Exact per-packet service is the only mode: every served packet
        # costs one serialization-finish event plus one delivery event,
        # so queue occupancy (what the ECN threshold K is compared to)
        # steps one packet at a time.
        link, dst = make_link(sim)
        for _ in range(5):
            link.enqueue(data())
        sim.run()
        assert len(dst.arrivals) == 5
        assert sim.events_processed == 2 * 5


class TestQueueInteraction:
    def test_queue_holds_only_waiting_packets(self, sim):
        link, _ = make_link(sim)
        link.enqueue(data())  # goes straight to the transmitter
        assert link.occupancy == 0
        link.enqueue(data())
        assert link.occupancy == 1

    def test_overflow_drops(self, sim):
        link, dst = make_link(sim, capacity=2)
        for _ in range(5):
            link.enqueue(data())
        sim.run()
        # 1 in flight + 2 queued survive.
        assert len(dst.arrivals) == 3
        assert link.queue.stats.dropped == 2

    def test_counters(self, sim):
        link, _ = make_link(sim)
        for _ in range(3):
            link.enqueue(data())
        sim.run()
        assert link.packets_transmitted == 3
        assert link.bytes_transmitted == 4500
        assert link.bytes_offered == 4500


class TestUtilization:
    def test_full_utilization(self, sim):
        link, _ = make_link(sim)
        # 1000 packets back to back = 12 ms of airtime.
        for _ in range(100):
            link.enqueue(data())

        def refill():
            if link.occupancy < 50:
                for _ in range(50):
                    link.enqueue(data())
            if sim.now < 0.012:
                sim.schedule(1e-4, refill)

        sim.schedule(1e-4, refill)
        sim.run(until=0.012)
        assert link.utilization(0.012) > 0.95

    def test_idle_utilization_zero(self, sim):
        link, _ = make_link(sim)
        assert link.utilization(1.0) == 0.0

    def test_zero_duration(self, sim):
        link, _ = make_link(sim)
        assert link.utilization(0.0) == 0.0


class TestFailure:
    def test_down_link_discards(self, sim):
        link, dst = make_link(sim)
        link.set_down()
        link.enqueue(data())
        sim.run()
        assert dst.arrivals == []
        assert link.queue.stats.dropped == 1

    def test_down_flushes_queue(self, sim):
        link, dst = make_link(sim)
        for _ in range(5):
            link.enqueue(data())
        link.set_down()
        sim.run()
        assert dst.arrivals == []

    def test_in_flight_packet_lost_when_down(self, sim):
        link, dst = make_link(sim)
        link.enqueue(data())
        sim.schedule(1e-6, link.set_down)  # mid-serialization
        sim.run()
        assert dst.arrivals == []

    def test_recovers_after_set_up(self, sim):
        link, dst = make_link(sim)
        link.set_down()
        link.enqueue(data())
        link.set_up()
        link.enqueue(data())
        sim.run()
        assert len(dst.arrivals) == 1

    def test_validation(self, sim):
        src, dst = Sink(sim, "a"), Sink(sim, "b")
        with pytest.raises(ValueError):
            Link(sim, "L", src, dst, 0.0, 1e-6)
        with pytest.raises(ValueError):
            Link(sim, "L", src, dst, 1e9, -1.0)


class TestFlapConservation:
    """Across down/up edges every offered frame is, at every instant,
    exactly one of: transmitted, dropped, waiting, or in service."""

    def test_flap_within_one_serialization_keeps_frame_lost(self, sim):
        # 1500 B at 1 Gbps serializes for 12 us; the link is back up
        # 1 us after it went down, well before the finish event.
        link, dst = make_link(sim)
        link.enqueue(data())
        sim.schedule(1e-6, link.set_down)
        sim.schedule(2e-6, link.set_up)
        sim.run()
        assert dst.arrivals == []
        assert link.packets_transmitted == 0
        assert link.queue.stats.dropped == 1
        assert link.up and not link.busy
        link.enqueue(data())  # and it carries traffic again
        sim.run()
        assert len(dst.arrivals) == 1

    @pytest.mark.parametrize(
        "validate", [False, True], ids=["bare", "REPRO_VALIDATE"]
    )
    def test_down_up_down_script_conserves_frames(self, validate, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1" if validate else "")
        # Activate what the environment asks for, as runner.execute does.
        validator = fresh("validate") if requested("validate") else None
        assert (validator is not None) == validate
        with probing(*([validator] if validator else [])):
            net = Network()
            src, dst = Sink(net.sim, "src"), Sink(net.sim, "dst")
            link = net.add_link(src, dst, 1e9, 10e-6, lambda: DropTailQueue(3))
        sim = net.sim
        offered = 0

        def offer(count):
            nonlocal offered
            for _ in range(count):
                link.enqueue(data())
                offered += 1

        script = [
            (0.0, offer, 5),        # 1 in service, 3 waiting, 1 overflow
            (1e-6, link.set_down),  # flushes 3, dooms the one in service
            (2e-6, link.set_up),    # deferred behind the doomed frame
            (3e-6, offer, 1),       # still down: dropped
            (13e-6, offer, 3),      # finish at 12 us raised `up`: serving
            (14e-6, link.set_down),
            (15e-6, link.set_up),
            (16e-6, link.set_down),  # withdraws the deferred up
            (30e-6, offer, 1),      # down and idle: dropped
            (31e-6, link.set_up),   # idle: immediate
            (32e-6, offer, 2),
        ]
        for when, action, *args in script:
            sim.schedule(when, action, *args)
        steps = 0
        while sim.pending_events:
            sim.run(max_events=1)
            steps += 1
            stats = link.queue.stats
            assert offered == (
                link.packets_transmitted + stats.dropped
                + link.occupancy + int(link.busy)
            ), f"unbalanced after step {steps} at t={sim.now}"
        assert offered == 12 and steps > len(script)
        assert link.packets_transmitted == len(dst.arrivals) == 2
        assert link.queue.stats.dropped == 10
        assert link.up and not link.busy
        if validator is not None:
            validator.finish()
            assert validator.violations == []
            assert validator.checks > 0

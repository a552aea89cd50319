"""Tests for the periodic samplers and link utilization."""

import pytest

from repro.metrics.collector import (
    SAMPLE_PRIORITY,
    PeriodicSampler,
    QueueMonitor,
    RateSampler,
    RttSampler,
    SeriesSampler,
)
from repro.metrics.stats import summarize
from repro.mptcp.connection import MptcpConnection
from repro.net.packet import MSS_BYTES
from repro.sim.probe import Probe


class TestSamplePriority:
    """Regression: samplers must fire *after* model events at an instant.

    Ticks used to run at the default priority 0, so whether a sample at
    time t saw the effects of a model event at time t depended on the
    insertion-order tiebreak — a race on scheduling order.
    """

    def test_tick_observes_post_event_state(self, sim):
        seen = []
        state = {"counter": 0}

        class CounterSampler(PeriodicSampler):
            def sample(self):
                seen.append(state["counter"])

        sampler = CounterSampler(sim, interval=0.01, until=0.05)
        sampler.start()  # the t=0 tick enters the heap first...

        def bump():
            state["counter"] += 1

        # ...and these model events (priority 0) are scheduled *after*
        # it for the same instants.  Under the old insertion-order race
        # the t=0 sample would read 0; fire-last priority guarantees
        # every sample sees the settled end-of-instant state.
        for i in range(6):
            sim.schedule(i * 0.01, bump)
        sim.run()
        assert seen[0] == 1
        assert seen == [1, 2, 3, 4, 5, 6]

    def test_ticks_scheduled_at_sample_priority(self, sim):
        fired = []

        class Spy(Probe):
            kind = "profile"

            def on_event_fired(self, time, priority, callback, args):
                fired.append(priority)

        Spy().attach(sim)
        monitor = QueueMonitor(sim, [], interval=0.01, until=0.05)
        monitor.start()
        sim.run()
        assert fired and set(fired) == {SAMPLE_PRIORITY}

    def test_stop_keeps_the_pending_sample(self, sim):
        """``stop()`` promises "after the current tick": the already-
        scheduled tick still takes its sample, then doesn't reschedule.
        The old ``_tick`` checked the flag *before* sampling and dropped
        the window's final data point.
        """
        monitor = QueueMonitor(sim, [], interval=0.01)
        monitor.start()
        sim.schedule(0.03, monitor.stop)
        sim.run(until=0.2)
        assert list(monitor.series.times) == pytest.approx([0.0, 0.01, 0.02, 0.03])


class TestRateSampler:
    def test_measures_delivery_rate(self, two_host_net):
        net = two_host_net
        conn = MptcpConnection(net, "A", "B", net.paths("A", "B"), scheme="xmp")
        sampler = RateSampler(net.sim, interval=0.01, until=0.1)
        sampler.add_sender("f", conn.subflows[0].sender)
        sampler.start(0.01)
        conn.start()
        net.sim.run(until=0.1)
        # Steady samples should sit near line rate (1 Gbps payload-scaled).
        steady = sampler.series["f"][3:]
        assert all(rate > 0.5e9 for rate in steady)

    def test_rate_times_interval_matches_delivery(self, two_host_net):
        net = two_host_net
        conn = MptcpConnection(net, "A", "B", net.paths("A", "B"), scheme="xmp")
        sampler = RateSampler(net.sim, interval=0.01, until=0.2)
        sampler.add_sender("f", conn.subflows[0].sender)
        sampler.start(0.01)
        conn.start()
        net.sim.run(until=0.2)
        total_from_rates = sum(sampler.series["f"]) * 0.01 / 8.0
        delivered = conn.subflows[0].sender.delivered_segments * MSS_BYTES
        assert total_from_rates == pytest.approx(delivered, rel=0.1)

    def test_add_sender_pads_history(self, sim):
        sampler = RateSampler(sim, interval=0.1)
        sampler.start()
        sim.run(until=0.35)

        class FakeSender:
            delivered_segments = 0

        sampler.add_sender("late", FakeSender())
        assert len(sampler.series) == 4
        assert list(sampler.series["late"]) == [0.0] * 4
        sim.run(until=0.45)
        assert len(sampler.series["late"]) == len(sampler.series.times) == 5

    def test_duplicate_name_rejected(self, sim):
        class FakeSender:
            delivered_segments = 0

        sampler = RateSampler(sim, interval=0.1)
        sampler.add_sender("a", FakeSender())
        with pytest.raises(ValueError):
            sampler.add_sender("a", FakeSender())

    def test_mean_rate_window(self, sim):
        class FakeSender:
            delivered_segments = 0

        sender = FakeSender()
        sampler = RateSampler(sim, interval=0.1)
        sampler.add_sender("a", sender)
        sampler.start()

        def bump():
            sender.delivered_segments += 100

        for i in range(1, 6):
            sim.schedule(i * 0.1 - 0.05, bump)
        sim.run(until=0.55)
        expected = 100 * MSS_BYTES * 8 / 0.1
        assert sampler.series.mean("a", 0.05, 0.55) == pytest.approx(expected)

    def test_interval_validation(self, sim):
        with pytest.raises(ValueError):
            RateSampler(sim, interval=0.0)


class TestQueueMonitor:
    def test_tracks_occupancy(self, two_host_net):
        net = two_host_net
        conn = MptcpConnection(net, "A", "B", net.paths("A", "B"), scheme="xmp")
        links = [link for link in net.links if link.src.name == "SW"]
        monitor = QueueMonitor(net.sim, links, interval=0.001, until=0.05)
        monitor.start()
        conn.start()
        net.sim.run(until=0.05)
        name = links[0].name
        assert max(monitor.series[name]) >= 0
        assert len(monitor.series) > 10

    def test_stop_halts_sampling(self, sim):
        monitor = QueueMonitor(sim, [], interval=0.01)
        monitor.start()
        sim.schedule(0.05, monitor.stop)
        sim.run(until=0.2)
        assert len(monitor.series) <= 7

    def test_empty_stats(self, sim):
        monitor = QueueMonitor(sim, [], interval=0.01)
        assert len(monitor.series) == 0
        assert monitor.series.columns == {}


class TestSeriesSampler:
    def test_readers_fill_one_row_per_tick(self, sim):
        state = {"n": 0}

        def bump():
            state["n"] += 1

        sampler = SeriesSampler(sim, interval=0.01, until=0.03)
        sampler.watch("n", lambda: state["n"])
        sampler.watch("twice", lambda: 2 * state["n"])
        sampler.start()
        for i in range(4):
            sim.schedule(i * 0.01, bump)
        sim.run()
        assert list(sampler.series["n"]) == [1.0, 2.0, 3.0, 4.0]
        assert list(sampler.series["twice"]) == [2.0, 4.0, 6.0, 8.0]

    def test_one_tick_event_per_instance(self, sim):
        """Event counts are digested: N watched keys are still one event."""
        sampler = SeriesSampler(sim, interval=0.01, until=0.05)
        for key in "abc":
            sampler.watch(key, lambda: 0.0)
        sampler.start()
        assert sim.pending_events == 1
        sim.run()
        assert len(sampler.series) == 6
        # Six sampling ticks plus the one past `until` that declines.
        assert sim.events_processed == 7

    def test_sampled_scenario_fires_the_recorded_event_count(self):
        """The ``bottleneck-xmp`` golden input plus one sampler: 6,225
        model events (the golden's own count) and 399 ticks — recorded
        when each sampler kept its own lists, and event counts are
        digested, so the shared series must not add or drop a tick."""
        from repro.topology.bottleneck import build_single_bottleneck

        net = build_single_bottleneck(num_pairs=2, marking_threshold=10)
        path0 = net.flow_path(0)
        conns = [
            MptcpConnection(net, "S0", "D0", [path0, path0], scheme="xmp",
                            size_bytes=600_000),
            MptcpConnection(net, "S1", "D1", [net.flow_path(1)], scheme="xmp",
                            size_bytes=400_000),
        ]
        monitor = QueueMonitor(net.sim, net.links, 1e-3, until=0.4)
        monitor.start(1e-3)
        for conn in conns:
            conn.start()
        net.sim.run(until=0.4)
        assert net.sim.events_processed == 6624
        assert len(monitor.series) == 399
        assert len(monitor.series.columns) == len(net.links)

    def test_duplicate_key_rejected(self, sim):
        sampler = SeriesSampler(sim, interval=0.01)
        sampler.watch("a", lambda: 0.0)
        with pytest.raises(ValueError):
            sampler.watch("a", lambda: 1.0)


class TestRttSampler:
    def test_collects_by_group(self, two_host_net):
        net = two_host_net
        conn = MptcpConnection(net, "A", "B", net.paths("A", "B"), scheme="xmp")
        sampler = RttSampler(net.sim, interval=0.005, until=0.1)
        sampler.watch("inter-pod", conn.subflows[0].sender)
        sampler.start(0.005)
        conn.start()
        net.sim.run(until=0.1)
        samples = sampler.samples["inter-pod"]
        assert samples
        assert all(sample > 0 for sample in samples)

    def test_completed_sender_not_sampled(self, two_host_net):
        net = two_host_net
        conn = MptcpConnection(net, "A", "B", net.paths("A", "B"),
                               scheme="xmp", size_bytes=100_000)
        sampler = RttSampler(net.sim, interval=0.01, until=1.0)
        sampler.watch("g", conn.subflows[0].sender)
        sampler.start(0.01)
        conn.start()
        net.sim.run(until=1.0)
        count = len(sampler.samples["g"])
        assert count < 10  # flow finished in a few ms


class TestUtilization:
    def test_utilization_by_layer_shapes(self, two_host_net):
        net = two_host_net
        conn = MptcpConnection(net, "A", "B", net.paths("A", "B"), scheme="xmp")
        conn.start()
        net.sim.run(until=0.05)
        result = summarize([link.utilization(0.05) for link in net.links_by_layer("")])
        assert 0.0 <= result["min"] <= result["max"] <= 1.0

    def test_busy_link_near_one(self, two_host_net):
        net = two_host_net
        conn = MptcpConnection(net, "A", "B", net.paths("A", "B"), scheme="xmp")
        conn.start()
        net.sim.run(until=0.1)
        values = [link.utilization(0.1) for link in net.links]
        assert max(values) > 0.8

    def test_duration_validation(self, two_host_net):
        # A non-positive window has carried nothing yet: zero, not a
        # division by zero.
        assert [link.utilization(0.0) for link in two_host_net.links] == [0.0] * len(
            two_host_net.links
        )

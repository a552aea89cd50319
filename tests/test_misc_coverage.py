"""Miscellaneous coverage: small behaviours not exercised elsewhere."""

import random

import pytest

from repro.metrics.collector import PeriodicSampler
from repro.transport.cc import Coupling
from repro.net.queue import REDQueue
from repro.sim.engine import Simulator
from repro.transport.cc import RenoCC
from repro.transport.dctcp import DctcpCC


class TestUncoupledFactory:
    def test_controllers_listed(self):
        factory = Coupling(DctcpCC)
        a = factory.make_controller()
        b = factory.make_controller()
        assert factory.controllers == [a, b]
        assert a is not b

    def test_factory_builds_requested_type(self):
        factory = Coupling(lambda: RenoCC(ecn=True))
        controller = factory.make_controller()
        assert isinstance(controller, RenoCC)
        assert controller.ecn_capable


class TestRedCornerCases:
    def test_degenerate_equal_thresholds_probability(self):
        queue = REDQueue(100, 10, 10, weight=1.0, rng=random.Random(0))
        queue.avg = 10.0
        assert queue._mark_probability() == 1.0
        queue.avg = 9.99
        assert queue._mark_probability() == 0.0

    def test_avg_persists_across_arrivals(self):
        from repro.net.packet import DATA, Packet

        queue = REDQueue(100, 5, 15, weight=0.5, rng=random.Random(0))
        for _ in range(4):
            queue.accept(Packet(DATA, 1500, 0, 0, ect=True))
        # EWMA with w=0.5 over occupancies 0,1,2,3.
        expected = 0.0
        for occupancy in (0, 1, 2, 3):
            expected += 0.5 * (occupancy - expected)
        assert queue.avg == pytest.approx(expected)


class TestPeriodicSamplerSemantics:
    def test_until_bound_inclusive_behavior(self):
        sim = Simulator()
        ticks = []

        class Recorder(PeriodicSampler):
            def sample(self):
                ticks.append(self.sim.now)

        sampler = Recorder(sim, interval=0.1, until=0.35)
        sampler.start(0.1)
        sim.run(until=1.0)
        assert ticks == pytest.approx([0.1, 0.2, 0.3])

    def test_no_until_runs_with_heap(self):
        sim = Simulator()
        ticks = []

        class Recorder(PeriodicSampler):
            def sample(self):
                ticks.append(self.sim.now)

        Recorder(sim, interval=0.1).start(0.1)
        sim.run(until=0.55)
        # Self-rescheduling keeps the heap alive until the run bound.
        assert len(ticks) == 5

    def test_interval_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicSampler(sim, interval=-1.0)


class TestSimulatorPriorities:
    def test_priority_with_timer_interplay(self):
        from repro.sim.events import Timer

        sim = Simulator()
        order = []
        timer = Timer(sim, lambda: order.append("timer"))
        timer.start(1.0)
        sim.schedule(1.0, lambda: order.append("low"), priority=5)
        sim.schedule(1.0, lambda: order.append("high"), priority=-5)
        sim.run()
        assert order[0] == "high"
        assert "timer" in order

    def test_many_same_time_events_stable(self):
        sim = Simulator()
        fired = []
        for i in range(200):
            sim.schedule(0.5, fired.append, i)
        sim.run()
        assert fired == list(range(200))

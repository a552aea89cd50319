"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(3.0, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]

    def test_same_time_events_fire_fifo(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(10))

    def test_priority_breaks_ties(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "low", priority=1)
        sim.schedule(1.0, fired.append, "high", priority=0)
        sim.run()
        assert fired == ["high", "low"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_zero_delay_allowed(self, sim):
        fired = []
        sim.schedule(0.0, fired.append, 1)
        sim.run()
        assert fired == [1]

    def test_schedule_at_absolute_time(self, sim):
        seen = []
        sim.schedule_at(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_run_fire(self, sim):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_callback_args_passed(self, sim):
        seen = []
        sim.schedule(0.1, lambda a, b: seen.append((a, b)), 1, "x")
        sim.run()
        assert seen == [(1, "x")]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_cancelled_events_not_counted_as_processed(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 1

    def test_cancel_from_inside_callback(self, sim):
        fired = []
        later = sim.schedule(2.0, fired.append, "later")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []


class TestRunControl:
    def test_run_until_stops_clock_at_until(self, sim):
        sim.schedule(5.0, lambda: None)
        end = sim.run(until=2.0)
        assert end == 2.0
        assert sim.now == 2.0

    def test_run_until_fires_events_at_exactly_until(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "edge")
        sim.run(until=2.0)
        assert fired == ["edge"]

    def test_event_after_until_survives_for_next_run(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=2.0)
        assert fired == []
        sim.run()
        assert fired == ["late"]

    def test_run_with_empty_heap_advances_to_until(self, sim):
        end = sim.run(until=4.0)
        assert end == 4.0

    def test_stop_inside_callback(self, sim):
        fired = []

        def stop_now():
            fired.append(1)
            sim.stop()

        sim.schedule(1.0, stop_now)
        sim.schedule(2.0, fired.append, 2)
        sim.run()
        assert fired == [1]
        assert sim.now == 1.0

    def test_max_events_limits_firing(self, sim):
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(max_events=3)
        assert sim.events_processed == 3
        assert sim.now == 3.0

    def test_run_not_reentrant(self, sim):
        def reenter():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, reenter)
        sim.run()

    def test_events_processed_counter(self, sim):
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_pending_events_counter(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2

    def test_multiple_sequential_runs(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(3.0, fired.append, 2)
        sim.run(until=2.0)
        assert fired == [1]
        sim.run(until=4.0)
        assert fired == [1, 2]


class TestHeapCompaction:
    def test_compaction_bounds_dead_fraction(self, sim):
        fired = []
        events = [sim.schedule(float(i + 1), fired.append, i) for i in range(5000)]
        for event in events[:4000]:
            event.cancel()
        # Compaction triggered mid-cancellation: live events all survive,
        # and the dead tail left after the last rebuild stays bounded by
        # the trigger thresholds.
        assert sim.pending_events < 5000
        assert sim.pending_events >= 1000
        assert sim.cancelled_pending == sim.pending_events - 1000
        sim.run()
        assert fired == list(range(4000, 5000))

    def test_below_threshold_no_compaction(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
        for event in events:
            event.cancel()
        # 100 < COMPACT_MIN_CANCELLED: lazy deletion only.
        assert sim.pending_events == 100
        assert sim.cancelled_pending == 100

    def test_compaction_preserves_firing_order(self, sim):
        fired = []
        keep = []
        cancel = []
        for i in range(4000):
            delay = float(i + 1)
            if i % 4 == 0:
                keep.append((delay, sim.schedule(delay, fired.append, delay)))
            else:
                cancel.append(sim.schedule(delay, fired.append, -delay))
        for event in cancel:
            event.cancel()
        sim.run()
        assert fired == [delay for delay, _ in keep]

    def test_cancel_after_compaction_still_safe(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(3000)]
        for event in events[:2500]:
            event.cancel()
        # Cancel events already dropped from the heap by a compaction:
        # their sim backref is gone, so this must be a quiet no-op.
        for event in events[:2500]:
            event.cancel()
        sim.run()
        assert sim.events_processed == 500

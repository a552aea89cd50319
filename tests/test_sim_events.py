"""Tests for Event and the lazy deadline Timer."""

import tracemalloc

from repro.sim import events as events_module
from repro.sim.events import Timer


class TestTimer:
    def test_fires_after_delay(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.run()
        assert fired == [1.0]

    def test_armed_reflects_state(self, sim):
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        timer.start(1.0)
        assert timer.armed
        sim.run()
        assert not timer.armed

    def test_expiry_reports_deadline(self, sim):
        expired_at = []
        timer = Timer(sim, lambda: expired_at.append(sim.now))
        timer.start(2.0)
        sim.run()
        assert expired_at == [2.0]

    def test_cancel_prevents_firing(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(1.0)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_cancel_without_start_is_noop(self, sim):
        Timer(sim, lambda: None).cancel()

    def test_cancelled_record_still_fires_as_counted_noop(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        timer.cancel()
        assert sim.pending_events == 1
        sim.run()
        assert sim.events_processed == 1

    def test_close_lets_go_of_the_owner_but_keeps_the_record(self, sim):
        import gc
        import weakref

        class Owner:
            def __init__(self):
                self.fired = 0
                self.timer = Timer(sim, self.expire)

            def expire(self):
                self.fired += 1

        owner = Owner()
        owner.timer.start(1.0)
        owner.timer.close()
        ref = weakref.ref(owner)
        del owner
        gc.collect()
        assert ref() is None  # the pending record no longer reaches it
        assert sim.pending_events == 1
        sim.run()
        assert sim.events_processed == 1  # fired, as the same counted no-op

    def test_restart_extends_deadline(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.schedule(0.5, timer.restart, 1.0)  # new deadline 1.5
        sim.run()
        assert fired == [1.5]

    def test_restart_shortens_deadline(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(5.0)
        timer.restart(1.0)
        sim.run()
        assert fired == [1.0]

    def test_repeated_lazy_restarts_fire_once_at_final_deadline(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        for i in range(1, 10):
            sim.schedule(i * 0.1, timer.restart, 1.0)
        sim.run()
        assert fired == [1.9]

    def test_moved_later_rearm_that_rounds_past_its_deadline_fires_once(self, sim):
        # The wake-up at ``first`` re-files at first + (deadline - first),
        # which rounds one ulp past ``deadline``: that record wakes after
        # its deadline and must fire there, not re-arm into the past.
        first, deadline = 0.6851721226269081, 2.95364116955165
        due = first + (deadline - first)
        assert due > deadline
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(first)
        timer.start(deadline)  # moved later: the ``first`` record re-arms
        clock = [sim.now]
        for _ in range(10):
            if not sim.pending_events:
                break
            sim.run(max_events=1)
            clock.append(sim.now)
        assert fired == [due]
        assert clock == sorted(clock)
        assert sim.pending_events == 0

    def test_lazy_restart_does_not_grow_heap(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        before = sim.pending_events
        timer.restart(2.0)  # later deadline: no new heap entry
        assert sim.pending_events == before

    def test_restart_after_fire_works(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.run()
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0]

    def test_cancel_then_restart(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        timer.cancel()
        timer.start(2.0)
        sim.run()
        assert fired == [2.0]

    def test_callback_may_rearm_itself(self, sim):
        fired = []
        timer = Timer(sim, lambda: None)

        def tick():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(1.0)

        timer._callback = tick  # rebind for the self-rearm pattern
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestTimerIsItsOwnHandle:
    """An arm files one record pointing at the timer: no Event, no bound
    method, and a moved-earlier re-arm voids the old record exactly."""

    def test_arm_fire_rearm_cycles_allocate_no_event(self, sim, monkeypatch):
        created = []
        init = events_module.Event.__init__

        def counting_init(self, *args, **kwargs):
            created.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(events_module.Event, "__init__", counting_init)
        fired = []
        timer = Timer(sim, lambda: None)

        def expire():
            fired.append(sim.now)
            if len(fired) < 10_000:
                timer.start(1e-3)  # arm after fire
                timer.start(2e-3)  # later: rides the pending record
                timer.start(1.5e-3)  # earlier than the deadline, not the record

        timer._callback = expire
        timer.start(1e-3)
        sim.run()
        assert len(fired) == 10_000
        assert created == []

    def test_a_pending_arm_costs_only_its_record(self, sim):
        timers = [Timer(sim, lambda: None) for _ in range(10_000)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i, timer in enumerate(timers):
                timer.start(1.0 + i * 1e-6)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # The record tuple, its one-element args tuple, the time and the
        # sequence number: ~200 bytes.  An Event plus a bound method per
        # arm put it at ~330.
        assert grown / len(timers) < 260

    def test_moved_earlier_rearm_fires_once_and_skips_the_stale_record(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        timer.start(0.5)  # earlier: the 2.0 record is voided
        assert sim.pending_events == 2
        assert sim.cancelled_pending == 1
        sim.run()
        assert fired == [0.5]
        # Only the live record counts; the stale one was skipped.
        assert sim.events_processed == 1
        assert sim.cancelled_pending == 0
        assert sim.pending_events == 0

    def test_moved_earlier_twice_voids_both_stale_records(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        timer.start(2.0)
        timer.start(1.0)
        assert sim.cancelled_pending == 2
        sim.run()
        assert fired == [1.0]
        assert sim.events_processed == 1
        assert sim.cancelled_pending == 0

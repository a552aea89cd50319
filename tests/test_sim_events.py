"""Tests for Event and the lazy deadline Timer."""

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

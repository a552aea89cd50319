"""Property-based tests for the event heap and Timer.

Random interleavings of schedule/cancel (with heap compaction forced via
a tiny ``COMPACT_MIN_CANCELLED``) and of Timer start/restart/cancel (one
timer, and several under the same forced compaction, where
``cancelled_pending`` must match the voided records still pending) are
checked against straightforward reference models.  Uses ``hypothesis``
when available and falls back to a seeded fuzzer otherwise, so the suite
exercises the same properties on machines without the dependency.

All times are multiples of 1/1024 s: sums and comparisons of such floats
are exact, so the models can use ``==`` on times without tolerance.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.events import Timer

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal images
    HAVE_HYPOTHESIS = False

pytestmark = pytest.mark.invariants

TICK = 1.0 / 1024.0


# ----------------------------------------------------------------------
# Model 1: schedule/cancel interleavings + forced heap compaction
# ----------------------------------------------------------------------


def run_schedule_cancel(ops, compact_min=4):
    """Apply (kind, a, b) ops to a simulator; return (fired, expected).

    * ``("schedule", delay_ticks, priority)`` schedules a recording
      callback;
    * ``("cancel", index, _)`` cancels the index-th scheduled event
      (modulo the number scheduled so far; no-op when none).

    ``compact_min`` shrinks the compaction threshold so these small
    heaps actually compact (the default 1024 would never trigger).
    """
    sim = Simulator()
    sim.COMPACT_MIN_CANCELLED = compact_min  # instance attr shadows class
    fired = []
    scheduled = []
    for kind, a, b in ops:
        if kind == "schedule":
            delay, priority = a * TICK, b
            label = len(scheduled)
            event = sim.schedule(
                delay, fired.append, (delay, priority, label), priority=priority
            )
            scheduled.append((delay, priority, label, event))
        else:
            if scheduled:
                scheduled[a % len(scheduled)][3].cancel()
    sim.run()
    expected = sorted(
        (delay, priority, label)
        for delay, priority, label, event in scheduled
        if not event.cancelled
    )
    return fired, expected


def check_schedule_cancel(ops):
    fired, expected = run_schedule_cancel(ops)
    assert fired == expected


def test_compaction_drops_only_cancelled():
    sim = Simulator()
    events = [sim.schedule(i * TICK, lambda: None) for i in range(100)]
    for event in events[::2]:
        event.cancel()
    assert sim.pending_events == 100
    sim._compact()
    assert sim.pending_events == 50
    assert sim.cancelled_pending == 0
    assert sim.run() == pytest.approx(99 * TICK)
    assert sim.events_processed == 50


def test_compaction_triggers_automatically():
    sim = Simulator()
    sim.COMPACT_MIN_CANCELLED = 8
    events = [sim.schedule(i * TICK, lambda: None) for i in range(64)]
    for event in events[:33]:
        event.cancel()
    # 33 cancelled: > 8 and 66 > 64 pending -> the last cancel compacted.
    assert sim.pending_events == 31
    assert sim.cancelled_pending == 0


def test_cancelled_event_never_fires_and_cancel_is_idempotent():
    sim = Simulator()
    fired = []
    event = sim.schedule(TICK, fired.append, 1)
    event.cancel()
    event.cancel()
    sim.run()
    assert fired == []
    assert sim.events_processed == 0


# ----------------------------------------------------------------------
# Model 2: Timer start/restart/cancel interleavings
# ----------------------------------------------------------------------


def expected_timer_fires(ops):
    """The reference model: a timer set at t to delay d fires at t+d
    unless re-armed or cancelled first.  ``ops`` as in :func:`run_timer_ops`."""
    expected = []
    deadline = None
    for at, action, delay in ops:
        time = at * TICK
        while deadline is not None and deadline <= time:
            # Deadline passed (or fires at this exact instant: the timer
            # event has priority 0, the op priority -1 runs first only at
            # strictly equal times — model fires first when strictly less).
            if deadline < time:
                expected.append(deadline)
                deadline = None
            else:
                break
        if action in ("start", "restart"):
            deadline = time + delay * TICK
        else:
            deadline = None
    if deadline is not None:
        expected.append(deadline)
    return expected


def run_timer_ops(ops):
    """Apply timed Timer ops; return (fires, expected_fires).

    ``ops`` is a list of (at_ticks, action, delay_ticks) with strictly
    increasing ``at_ticks``; actions are "start", "restart", "cancel".
    The reference model tracks only the deadline contract.
    """
    sim = Simulator()
    fires = []
    timer = Timer(sim, lambda: fires.append(sim.now))
    actions = {
        "start": timer.start,
        "restart": timer.restart,
        "cancel": lambda _delay: timer.cancel(),
    }
    for at, action, delay in ops:
        sim.schedule_at(
            at * TICK, actions[action], delay * TICK, priority=-1
        )
    sim.run()
    return fires, expected_timer_fires(ops)


def stale_records(sim):
    """Pending records whose handle no longer names them (voided)."""
    pending = sim._run[sim._run_i:] + sim._near + sim._far + sim._parked
    return sum(
        record[3] is not None and record[3].seq != record[2] for record in pending
    )


def run_timer_churn(ops, timers=3, compact_min=2):
    """Several timers under interleaved ops, compaction forced small.

    ``ops`` is a list of (at_ticks, timer_index, action, delay_ticks)
    with strictly increasing ``at_ticks``.  After every op the scheduler's
    ``cancelled_pending`` must equal the number of voided records still
    pending — moved-earlier re-arms void one each, compactions drop them
    all — and each timer must fire exactly as the one-timer model says.
    """
    sim = Simulator()
    sim.COMPACT_MIN_CANCELLED = compact_min
    fires = [[] for _ in range(timers)]
    pool = [
        Timer(sim, lambda index=index: fires[index].append(sim.now))
        for index in range(timers)
    ]
    census = []

    def apply(index, action, delay):
        if action == "cancel":
            pool[index].cancel()
        else:
            pool[index].start(delay)
        census.append((sim.cancelled_pending, stale_records(sim)))

    for at, index, action, delay in ops:
        sim.schedule_at(at * TICK, apply, index % timers, action, delay * TICK, priority=-1)
    sim.run()
    census.append((sim.cancelled_pending, stale_records(sim)))
    expected = [
        expected_timer_fires(
            [(at, action, delay) for at, i, action, delay in ops if i % timers == index]
        )
        for index in range(timers)
    ]
    return fires, expected, census, sim


def check_timer_churn(ops):
    fires, expected, census, sim = run_timer_churn(ops)
    assert fires == expected
    assert all(counted == stale for counted, stale in census), census
    assert census[-1] == (0, 0)
    assert sim.pending_events == 0
    return sim


def test_timer_churn_counts_every_voided_record_through_compactions():
    # Three timers each pulled earlier over and over: every pull voids
    # one record, so compactions run with timer records pending.
    ops = []
    at = 0
    for round_ in range(40):
        for index in range(3):
            at += 1
            ops.append((at, index, "start", 400 - 9 * round_ - index))
    assert check_timer_churn(ops).compactions > 0


def check_timer(ops):
    fires, expected = run_timer_ops(ops)
    assert fires == expected


def test_timer_restart_later_keeps_heap_entry():
    sim = Simulator()
    fires = []
    timer = Timer(sim, lambda: fires.append(sim.now))
    timer.start(10 * TICK)
    first_pending = sim.pending_events
    timer.restart(20 * TICK)  # moves the deadline later: no new event
    assert sim.pending_events == first_pending
    sim.run()
    assert fires == [20 * TICK]


def test_timer_restart_earlier_cancels_and_reschedules():
    sim = Simulator()
    fires = []
    timer = Timer(sim, lambda: fires.append(sim.now))
    timer.start(20 * TICK)
    timer.restart(5 * TICK)
    sim.run()
    assert fires == [5 * TICK]


def test_timer_cancel_before_expiry():
    sim = Simulator()
    fires = []
    timer = Timer(sim, lambda: fires.append(sim.now))
    timer.start(10 * TICK)
    sim.schedule(5 * TICK, timer.cancel)
    sim.run()
    assert fires == []
    assert not timer.armed


# ----------------------------------------------------------------------
# Drivers: hypothesis when present, seeded fuzz otherwise
# ----------------------------------------------------------------------

if HAVE_HYPOTHESIS:
    sched_ops = st.lists(
        st.one_of(
            st.tuples(
                st.just("schedule"),
                st.integers(min_value=0, max_value=64),
                st.integers(min_value=-2, max_value=2),
            ),
            st.tuples(
                st.just("cancel"),
                st.integers(min_value=0, max_value=127),
                st.just(0),
            ),
        ),
        max_size=80,
    )

    @given(sched_ops)
    @settings(max_examples=150, deadline=None)
    def test_schedule_cancel_property(ops):
        check_schedule_cancel(ops)

    @st.composite
    def timer_ops(draw):
        count = draw(st.integers(min_value=0, max_value=12))
        times = draw(
            st.lists(
                st.integers(min_value=0, max_value=400),
                min_size=count, max_size=count, unique=True,
            )
        )
        ops = []
        for at in sorted(times):
            action = draw(st.sampled_from(["start", "restart", "cancel"]))
            delay = draw(st.integers(min_value=1, max_value=100))
            ops.append((at, action, delay))
        return ops

    @given(timer_ops())
    @settings(max_examples=150, deadline=None)
    def test_timer_property(ops):
        check_timer(ops)

    @st.composite
    def timer_churn_ops(draw):
        count = draw(st.integers(min_value=0, max_value=30))
        times = draw(
            st.lists(
                st.integers(min_value=0, max_value=600),
                min_size=count, max_size=count, unique=True,
            )
        )
        ops = []
        for at in sorted(times):
            index = draw(st.integers(min_value=0, max_value=2))
            action = draw(st.sampled_from(["start", "start", "restart", "cancel"]))
            delay = draw(st.integers(min_value=1, max_value=200))
            ops.append((at, index, action, delay))
        return ops

    @given(timer_churn_ops())
    @settings(max_examples=150, deadline=None)
    def test_timer_churn_property(ops):
        check_timer_churn(ops)

else:  # pragma: no cover - minimal images only

    def test_schedule_cancel_property():
        rng = random.Random(0xC0FFEE)
        for _ in range(300):
            ops = []
            for _ in range(rng.randrange(0, 80)):
                if rng.random() < 0.7:
                    ops.append(
                        ("schedule", rng.randrange(0, 65), rng.randrange(-2, 3))
                    )
                else:
                    ops.append(("cancel", rng.randrange(0, 128), 0))
            check_schedule_cancel(ops)

    def test_timer_property():
        rng = random.Random(0xBEEF)
        for _ in range(300):
            times = rng.sample(range(401), rng.randrange(0, 13))
            ops = [
                (
                    at,
                    rng.choice(["start", "restart", "cancel"]),
                    rng.randrange(1, 101),
                )
                for at in sorted(times)
            ]
            check_timer(ops)

    def test_timer_churn_property():
        rng = random.Random(0xFACE)
        for _ in range(300):
            times = rng.sample(range(601), rng.randrange(0, 31))
            ops = [
                (
                    at,
                    rng.randrange(3),
                    rng.choice(["start", "start", "restart", "cancel"]),
                    rng.randrange(1, 201),
                )
                for at in sorted(times)
            ]
            check_timer_churn(ops)

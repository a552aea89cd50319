"""Property-based equivalence tests for the calendar-queue scheduler.

The calendar/ladder structure (sorted run / near bucket / far window /
parked tier) must fire events in *exactly* the order a single reference
binary heap would:
ascending ``(time, priority, seq)``, where ``seq`` is allocation order.
These tests run every random workload twice — once on the real
:class:`Simulator`, once on :class:`ReferenceSimulator`, a deliberately
naive seed-style binary-heap scheduler defined below — and assert the
fired sequences are identical, across dynamic (in-run) scheduling,
``post`` fast-path records, cancellations, same-instant priority ties,
forced compaction, ``run(until)`` / ``max_events`` interleavings, and a
long-dated population (hundreds to thousands of cancellable records many
far windows ahead, cancelled before the run and while parked, compacted
while parked, dropped by ``reset()``, reached by jump-ahead).
(A flat "sort the creation log" oracle is *not* equivalent: an event
created by a same-instant firing necessarily runs after its creator,
which only an actual scheduler models.)

Times are multiples of 1/1024 s so float sums are exact (PR 2's
convention), and the scripts shrink the compaction threshold (and, for
the long-dated population, the far-window length) and lean on the
engine's adaptive bucket width so small workloads still cross tier
boundaries.  Uses ``hypothesis`` when available, with a seeded-fuzz
fallback exercising the same properties otherwise.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush

import pytest

from repro.sim.engine import Simulator

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal images
    HAVE_HYPOTHESIS = False

pytestmark = pytest.mark.invariants

TICK = 1.0 / 1024.0


class _RefEvent:
    """Cancellation handle for :class:`ReferenceSimulator` entries."""

    __slots__ = ("entry",)

    def __init__(self, entry):
        self.entry = entry

    def cancel(self):
        self.entry[3] = True


class ReferenceSimulator:
    """The seed engine, reduced to its ordering semantics: one binary
    heap of ``(time, priority, seq, cancelled, callback, args)`` entries,
    lazy cancellation, events at exactly ``until`` fire, the clock
    advances to ``until`` on a timed stop."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0.0

    def schedule(self, delay, callback, *args, priority=0):
        self._seq += 1
        entry = [self.now + delay, priority, self._seq, False, callback, args]
        heappush(self._heap, entry)
        return _RefEvent(entry)

    def post(self, delay, callback, *args, priority=0):
        # Same sequence counter, no handle — mirrors Simulator.post.
        self._seq += 1
        heappush(
            self._heap,
            [self.now + delay, priority, self._seq, False, callback, args],
        )

    def run(self, until=None, max_events=None):
        remaining = float("inf") if max_events is None else max_events
        while self._heap and remaining > 0:
            entry = self._heap[0]
            if entry[3]:
                heappop(self._heap)
                continue
            if until is not None and entry[0] > until:
                break
            heappop(self._heap)
            self.now = entry[0]
            entry[4](*entry[5])
            remaining -= 1
        if until is not None and until > self.now:
            self.now = until
        return self.now


def interpret(sim, script, until_ticks=None, max_events=None):
    """Interpret ``script`` on any scheduler; return the fired list.

    ``script[0]`` is the setup program executed before ``run``;
    program ``k + 1`` runs when the event labelled ``k`` fires.  Ops:

    * ``("schedule", delay_ticks, priority, _)`` — cancellable record;
    * ``("post", delay_ticks, priority, _)`` — fast-path record;
    * ``("cancel", _, _, ref)`` — cancel the ``ref % created``-th record
      (a no-op on ``post`` records, exactly as at the engine API).
    """
    fired = []
    priorities = []  # label -> priority, creation order == seq order
    handles = []  # label -> handle | None (post records have none)

    def execute(ops):
        for kind, dticks, priority, ref in ops:
            if kind == "schedule":
                label = len(handles)
                priorities.append(priority)
                handles.append(
                    sim.schedule(dticks * TICK, fire, label, priority=priority)
                )
            elif kind == "post":
                label = len(handles)
                priorities.append(priority)
                handles.append(None)
                sim.post(dticks * TICK, fire, label, priority=priority)
            else:  # cancel
                if handles:
                    handle = handles[ref % len(handles)]
                    if handle is not None:
                        handle.cancel()

    def fire(label):
        fired.append((sim.now, priorities[label], label))
        if label + 1 < len(script):
            execute(script[label + 1])

    execute(script[0] if script else [])
    if until_ticks is not None:
        sim.run(until=until_ticks * TICK)
    if max_events is not None:
        sim.run(max_events=max_events)
    sim.run()  # drain whatever remains after the partial runs
    return fired


def check_workload(script, until_ticks=None, max_events=None, far_window=None):
    real = Simulator()
    real.COMPACT_MIN_CANCELLED = 4  # instance attr shadows class default
    if far_window is not None:
        real.FAR_WINDOW = far_window
    fired = interpret(real, script, until_ticks, max_events)
    reference = interpret(
        ReferenceSimulator(), script, until_ticks, max_events
    )
    assert fired == reference
    assert real.pending_events - real.cancelled_pending == 0


def with_long_dated(rng, script):
    """``script`` plus a long-dated population, and how long it spans.

    200-2,000 cancellable records, 64 or more ticks out and spread over
    up to 65,536 (many far windows ahead whatever the adapted width), are
    created by the setup program after its own ops.  A share of them is
    cancelled in the setup program, another by the program of the first
    event to fire — by then they are parked — and the two shares together
    can pass one half, which forces a compaction while they are parked.
    """
    script = [list(ops) for ops in script] or [[]]
    first = sum(op[0] != "cancel" for op in script[0])
    n = rng.randrange(200, 2001)
    span = rng.choice((256, 4096, 65536))

    def cancels():
        return [
            ("cancel", 0, 0, first + rng.randrange(n))
            for _ in range(int(rng.choice((0.0, 0.3, 0.7)) * n))
        ]

    script[0] += [
        ("schedule", 64 + rng.randrange(span), rng.randrange(-2, 3), 0)
        for _ in range(n)
    ]
    script[0] += cancels()
    if len(script) == 1:
        script.append([])
    script[1] = cancels() + script[1]
    return script, 64 + span


def check_long_dated(script, seed, far_window):
    rng = random.Random(seed)
    script, span = with_long_dated(rng, script)
    if rng.randrange(2):
        check_workload(
            script,
            until_ticks=rng.randrange(span),
            max_events=rng.randrange(1, 2001),
            far_window=far_window,
        )
    else:
        check_workload(script, far_window=far_window)


# ----------------------------------------------------------------------
# Deterministic spot checks of tier-boundary semantics
# ----------------------------------------------------------------------


def test_same_instant_priority_tie_across_promotion():
    """A later-scheduled higher-priority record at an instant already in
    the active run must still fire first at that instant."""
    sim = Simulator()
    fired = []
    # Force multiple promotions: events far enough apart that the initial
    # bucket width (256 us) separates them into distinct runs.
    for i in range(64):
        sim.schedule(i * TICK, fired.append, ("base", i))

    def inject():
        # Now inside the run containing t=32*TICK: schedule a same-time,
        # higher-priority event at t=33*TICK, which the run already holds.
        sim.schedule(TICK, fired.append, ("vip", 33), priority=-1)

    sim.schedule(32 * TICK, inject, priority=-2)
    sim.run()
    i_vip = fired.index(("vip", 33))
    i_base = fired.index(("base", 33))
    assert i_vip == i_base - 1, "higher priority must precede at the instant"
    assert [x for x in fired if x[0] == "base"] == [
        ("base", i) for i in range(64)
    ]


def test_fifo_among_equal_priority_across_tiers():
    sim = Simulator()
    fired = []
    # Same instant, scheduled in two phases: first up-front (parked),
    # then from inside an earlier event (active run).  FIFO by seq must
    # hold across both origins.
    for i in range(4):
        sim.schedule(TICK, fired.append, i)
    sim.schedule(0.0, lambda: [sim.schedule(TICK, fired.append, 4 + i) for i in range(4)])
    sim.run()
    assert fired == list(range(8))


def test_post_and_schedule_share_one_sequence():
    sim = Simulator()
    fired = []
    sim.schedule(TICK, fired.append, "a")
    sim.post(TICK, fired.append, "b")
    sim.schedule(TICK, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_nonfinite_delays_rejected():
    from repro.sim.engine import SimulationError

    sim = Simulator()
    for bad in (float("nan"), float("inf"), -float("inf"), -1e-9):
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)
        with pytest.raises(SimulationError):
            sim.post(bad, lambda: None)
    assert sim.pending_events == 0


def test_until_boundary_inside_active_run():
    """run(until) must stop cleanly even when the boundary falls inside
    a promoted run, and the next run() must resume in order."""
    sim = Simulator()
    fired = []
    for i in range(100):
        sim.schedule(i * TICK, fired.append, i)
    sim.run(until=37 * TICK)
    assert fired == list(range(38))  # events at exactly until fire
    assert sim.now == 37 * TICK
    sim.run()
    assert fired == list(range(100))


def test_counters_track_promotions_and_spills():
    sim = Simulator()
    for i in range(512):
        sim.schedule(i * TICK, lambda: None)
    sim.run()
    assert sim.promotions > 0
    assert sim.far_spills > 0
    assert sim.max_run >= 1
    assert sim.pending_events == 0


#: Sub-tick grid for the lane tests below: 2**-20 s keeps sums exact.
FINE = 1.0 / (1 << 20)


def _lanes_over_parked(sim, fired, parked):
    """8,000 events on 32 staggered self-posting lanes, 64 fine ticks
    (~61 us) a step — the packet layers' shape: the bucket width stays
    near 16 us, every post lands beyond the horizon and inside the ~4 ms
    far window, so every promotion spills and sorts — over ``parked``
    cancellable records 256 fine ticks (~0.25 ms) apart; every tenth is
    cancelled mid-run, after the first far windows have opened."""
    handles = []

    def tick(i):
        fired.append(("tick", i))
        if i == 1000:
            for handle in handles[::10]:
                handle.cancel()
        if i + 32 < 8000:
            sim.post(64 * FINE, tick, i + 32)

    for lane in range(32):
        sim.post(lane * FINE, tick, lane)
    for j in range(parked):
        handles.append(sim.schedule((j + 1) * 256 * FINE, fired.append, ("timer", j)))


def test_split_runs_inside_a_far_window_match_one_run():
    """run(until) stopping with the far window half consumed and records
    parked beyond it, resumed again and again, fires what one run fires."""
    whole, split, reference = [], [], []
    sim = Simulator()
    _lanes_over_parked(sim, whole, 100)
    sim.run()
    ref = ReferenceSimulator()
    _lanes_over_parked(ref, reference, 100)
    ref.run()
    assert whole == reference

    sim = Simulator()
    _lanes_over_parked(sim, split, 100)
    stops = 0
    for k in range(1, 100):
        sim.run(until=k * 300 * FINE)  # ~0.29 ms: every phase of a window
        stops += sim._horizon < sim._far_end and bool(sim._far) and bool(sim._parked)
        assert sim.now == k * 300 * FINE
    sim.run()
    assert stops > 10, "the stops were meant to land inside far windows"
    assert split == whole
    assert sim.pending_events == 0


def test_jump_ahead_reaches_parked_records_over_an_empty_far_window():
    sim = Simulator()
    fired = []
    for delay in (900.0, 1.0, 30.0, 30.0, 2.0):
        sim.schedule(delay, fired.append, delay)
    assert sim.run() == 900.0
    assert fired == [1.0, 2.0, 30.0, 30.0, 900.0]
    # One jump per pending instant, not a bucket-by-bucket slide.
    assert sim.promotions <= 4
    assert sim.pending_events == 0
    assert sim._promote() is False


def _gap_then_burst(sim, fired, observe):
    """24 lone events a second apart (every promotion is undersized, so
    the bucket width doubles up to ``MAX_WIDTH``), then at t=24 s a
    6,000-event binary fan-out one to seven fine ticks a step: the whole
    burst falls inside one wide bucket, and its pending set grows far
    past ``RUN_MAX``.  ``observe()`` runs inside every burst event."""

    def burst(i):
        fired.append((sim.now, i))
        observe()
        if 2 * i + 2 < 6000:
            sim.post((i % 7 + 1) * FINE, burst, 2 * i + 1)
            sim.schedule((i % 5 + 1) * FINE, burst, 2 * i + 2, priority=i % 3 - 1)

    for j in range(24):
        sim.schedule(float(j), fired.append, ("idle", j))
    sim.schedule(24.0, burst, 0)


def test_dense_burst_after_idle_gap_keeps_the_run_bounded():
    """In-run inserts cannot grow a run without bound: the consumed
    prefix is dropped and the unconsumed records are cut back at a time
    boundary, and the firing order stays the reference heap's."""
    sim = Simulator()
    fired, reference = [], []
    seen = {"run": 0, "pending": 0, "width": None}

    def observe():
        if seen["width"] is None:
            seen["width"] = sim._width
        seen["run"] = max(seen["run"], len(sim._run))
        seen["pending"] = max(seen["pending"], sim.pending_events)

    _gap_then_burst(sim, fired, observe)
    sim.run()
    ref = ReferenceSimulator()
    _gap_then_burst(ref, reference, lambda: None)
    ref.run()
    assert fired == reference
    assert seen["width"] >= 1.0, "the burst was meant to land in one wide bucket"
    assert seen["pending"] > 2 * Simulator.RUN_MAX
    assert seen["run"] <= Simulator.RUN_MAX
    assert sim.pending_events == 0


class _SortMeter(list):
    """A tier list that counts the records each ``sort()`` is handed."""

    def __init__(self):
        super().__init__()
        self.calls = self.handed = 0

    def sort(self):
        self.calls += 1
        self.handed += len(self)
        super().sort()


def _sort_work(parked):
    sim = Simulator()
    far = sim._far = _SortMeter()
    beyond = sim._parked = _SortMeter()
    fired = []
    _lanes_over_parked(sim, fired, 0)
    for j in range(parked):
        sim.schedule(1.0 + j * FINE, fired.append, j)
    sim.run(max_events=8000)
    assert sim.pending_events == parked
    return far.handed, beyond.calls, sim.promotions


def test_promotion_cost_does_not_grow_with_parked_records():
    """Scaling guard, in counts: 20,000 parked cancellable records add
    nothing to what the promotions hand to the far sort, and are looked
    at once per far window, not once per promotion."""
    bare, _, promotions = _sort_work(0)
    loaded, parked_sorts, loaded_promotions = _sort_work(20_000)
    assert loaded_promotions == promotions > 100
    assert bare > promotions  # the lanes do make every promotion sort
    assert loaded == bare
    assert parked_sorts <= promotions // 64


# ----------------------------------------------------------------------
# Drivers: hypothesis when present, seeded fuzz otherwise
# ----------------------------------------------------------------------

_op = st.one_of(
    st.tuples(
        st.just("schedule"),
        st.integers(min_value=0, max_value=48),
        st.integers(min_value=-2, max_value=2),
        st.just(0),
    ),
    st.tuples(
        st.just("post"),
        st.integers(min_value=0, max_value=48),
        st.integers(min_value=-2, max_value=2),
        st.just(0),
    ),
    st.tuples(
        st.just("cancel"),
        st.just(0),
        st.just(0),
        st.integers(min_value=0, max_value=255),
    ),
) if HAVE_HYPOTHESIS else None

if HAVE_HYPOTHESIS:
    scripts = st.lists(
        st.lists(_op, max_size=6), min_size=1, max_size=24
    )

    @given(scripts)
    @settings(max_examples=120, deadline=None)
    def test_calendar_matches_reference_order(script):
        check_workload(script)

    @given(
        scripts,
        st.integers(min_value=0, max_value=64),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=120, deadline=None)
    def test_calendar_matches_reference_with_partial_runs(
        script, until_ticks, max_events
    ):
        check_workload(script, until_ticks=until_ticks, max_events=max_events)

    @given(
        scripts,
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from((1, 4, 256)),
    )
    @settings(max_examples=40, deadline=None)
    def test_calendar_matches_reference_with_long_dated_population(
        script, seed, far_window
    ):
        check_long_dated(script, seed, far_window)

else:  # pragma: no cover - minimal images only

    def _random_script(rng):
        script = []
        for _ in range(rng.randrange(1, 25)):
            ops = []
            for _ in range(rng.randrange(0, 7)):
                roll = rng.random()
                if roll < 0.45:
                    ops.append(
                        ("schedule", rng.randrange(0, 49),
                         rng.randrange(-2, 3), 0)
                    )
                elif roll < 0.8:
                    ops.append(
                        ("post", rng.randrange(0, 49),
                         rng.randrange(-2, 3), 0)
                    )
                else:
                    ops.append(("cancel", 0, 0, rng.randrange(0, 256)))
            script.append(ops)
        return script

    def test_calendar_matches_reference_order():
        rng = random.Random(0x5EED)
        for _ in range(250):
            check_workload(_random_script(rng))

    def test_calendar_matches_reference_with_partial_runs():
        rng = random.Random(0xCA1E)
        for _ in range(250):
            check_workload(
                _random_script(rng),
                until_ticks=rng.randrange(0, 65),
                max_events=rng.randrange(1, 41),
            )

    def test_calendar_matches_reference_with_long_dated_population():
        rng = random.Random(0xFA12)
        for _ in range(60):
            check_long_dated(
                _random_script(rng), rng.randrange(2**32), rng.choice((1, 4, 256))
            )

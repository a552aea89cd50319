"""The discrete-event simulator core.

A :class:`Simulator` owns a four-tier calendar/ladder event structure
and a monotonically advancing clock.  Everything in the network model —
link serialization, propagation, TCP timers, application arrivals — is
expressed as events on a single simulator instance, so a whole experiment
is one deterministic event loop.

Time is a ``float`` in **seconds**.  All delays produced by the network
model are sums and quotients of exact inputs, and the deterministic
``(time, priority, seq)`` ordering means float rounding can never reorder
two events that were scheduled in a defined order at the same instant.

Event structure
---------------

Events live in exactly one of four tiers, partitioned by three moving
time boundaries ``run_end <= horizon <= far_end`` (absolute simulation
times):

* the **run** — a list sorted by ``(time, priority, seq)`` holding every
  pending event with ``time < run_end``, consumed in order by an index
  (no pops, no per-event heap maintenance).  Events scheduled *into* the
  current run window (the common case: zero- and short-delay chains) are
  insertion-sorted into the unconsumed suffix with :func:`bisect.insort`;
* the **near bucket** — an unsorted list for ``run_end <= time <
  horizon``.  Scheduling here is a plain ``list.append``.  When the run
  drains, the near bucket is sorted once (Timsort, in C) and promoted to
  be the new run;
* the **far window** — ``horizon <= time < far_end``, a coarse window
  ``FAR_WINDOW`` bucket widths long that holds what is *about to run*
  (packet events a propagation delay or an RTT out).  Not a heap: a
  lazily sorted list.  Inserts are plain appends onto a possibly-unsorted
  tail; the list is sorted (Timsort exploits the already-sorted prefix)
  only when a promotion actually needs to spill, and a spill is one
  ``bisect`` plus one slice instead of per-record ``heappop`` calls.
  ``_far_tail_min`` tracks the minimum time in the unsorted tail so the
  no-spill check stays O(1);
* the **parked tier** — everything at ``time >= far_end`` (RTO timers,
  pre-scheduled application arrivals...): a list that is appended to
  and otherwise left alone until the horizon reaches ``far_end``.  Then
  it is sorted (if anything was appended), the next window is opened and
  its slice handed to the far window.  A promotion therefore costs what
  the window holds, not what is merely pending — thousands of parked
  timers are looked at once every ``FAR_WINDOW`` buckets instead of at
  every spill.

The bucket width adapts to the observed event density (halving when runs
come out oversized, doubling when they come out undersized, between
``MIN_WIDTH`` and ``MAX_WIDTH``).  The width only tracks density at
promotions, so after an idle gap it can be wide enough that a dense
burst lands inside one run; the ``RUN_MAX`` cut therefore bounds the run
twice.  A promotion larger than ``RUN_MAX`` is cut back to it.  A run
that in-run inserts grow past ``RUN_MAX`` drops its consumed prefix, and
if its unconsumed records alone still pass ``RUN_MAX`` it is cut back to
``RUN_HI`` of them.  Either cut falls at a *time
boundary*, never between two events at the same instant, so the
``(time, priority, seq)`` total order — including same-instant priority
ties resolved across tiers — is exactly the order a single binary heap
would produce.
``tests/test_sim_calendar_properties.py`` pins this equivalence property
against a reference heap.

Event records are packed 6-tuples ``(time, priority, seq, handle,
callback, args)`` so ordering comparisons and sorting stay in C.  The
``handle`` field is ``None`` for records created by :meth:`Simulator.post`
and :meth:`Simulator.post_at`, the allocation-free path for events that
are never cancelled (link serialization, propagation delivery, workload
arrivals).  Otherwise it is the object that can void the record: the
:class:`~repro.sim.events.Event` that :meth:`Simulator.schedule` returns,
or a :class:`~repro.sim.events.Timer`, which is its own handle.

Record liveness is one rule: a record is live while ``handle.seq ==
record seq``.  A handle's ``seq`` names its one live record (0 when it
has none): the loop zeroes it when the record fires, and
:meth:`~repro.sim.events.Event.cancel` or a timer re-arm that moves the
deadline earlier zeroes or replaces it, so the old record no longer
matches.  Both loops and :meth:`Simulator._compact` skip a record that
fails the rule, uncounted.  Cancellation stays lazy (void + skip-on-pop)
with the same compaction thresholds the seed engine used.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.events import Event
from repro.sim.probe import NO_PROBE, Probe

#: One packed event record; ``handle`` (an Event or a Timer, anything
#: with a ``seq``) is None for post()-ed records.
EventRecord = Tuple[float, int, int, Any, Callable[..., None], tuple]

_INF = math.inf


class SimulationError(RuntimeError):
    """Raised for invalid scheduler usage (e.g. scheduling in the past)."""


class Simulator:
    """A single-threaded discrete-event scheduler.

    Typical usage::

        sim = Simulator()
        sim.schedule(0.5, callback, arg1, arg2)
        sim.run(until=10.0)

    The simulator stops when the pending set drains, when ``until`` is
    reached, or when :meth:`stop` is called from inside a callback.
    """

    #: Compaction fires only past this many pending cancellations …
    COMPACT_MIN_CANCELLED = 1024
    #: … and only when cancelled events exceed this fraction of the heap.
    COMPACT_FRACTION = 0.5

    #: Promotion sizing: halve the bucket width when a promoted run
    #: exceeds RUN_HI records, double it below RUN_LO.  Runs are kept
    #: deliberately short: scheduling *into* the active run is an
    #: insertion-sort (C bisect + list-insert memmove), and the per-packet
    #: layers post short-delay events constantly, so small runs trade a
    #: few extra promotions (one cheap Timsort each) for much cheaper
    #: in-run inserts.  Tuned on the engine cells the ledger now carries
    #: (BENCHMARK.json: sim.schedule_fire_ns, sim.post_fire_ns,
    #: sim.events_per_s.*).
    RUN_LO = 8
    RUN_HI = 128
    #: Hard cap, at a time boundary, with the tail returned to the near
    #: bucket: an oversized promotion is cut back to ~RUN_MAX, and a run
    #: that in-run inserts grow past RUN_MAX unconsumed records is cut
    #: back to ~RUN_HI (a consumed prefix is simply dropped).
    RUN_MAX = 512
    #: Length of the far window in bucket widths: long enough that
    #: packet-scale delays (a propagation delay, an RTT) never park,
    #: short enough that RTO-scale timers stay out of the spill sort.
    #: mice_churn measured flat from 16 to 8,192.
    FAR_WINDOW = 256
    #: Bucket width bounds (seconds of simulated time).
    MIN_WIDTH = 1e-9
    MAX_WIDTH = 64.0
    #: Initial bucket width: a fraction of the paper testbed's ~100 us
    #: RTT, so the first promotions start near the adapted regime.
    INITIAL_WIDTH = 16e-6

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        # --- the four tiers -------------------------------------------
        #: Sorted records with time < _run_end, consumed from _run_i.
        self._run: List[EventRecord] = []
        self._run_i = 0
        self._run_end = 0.0
        #: Unsorted records with _run_end <= time < _horizon.
        self._near: List[EventRecord] = []
        #: Records with _horizon <= time < _far_end: a sorted prefix plus
        #: an appended unsorted tail whose minimum time is _far_tail_min
        #: (inf when clean).
        self._far: List[EventRecord] = []
        self._far_tail_min = _INF
        self._horizon = 0.0
        self._far_end = 0.0
        #: Records with time >= _far_end, sorted through _parked_sorted;
        #: only :meth:`_open_window` reads them.
        self._parked: List[EventRecord] = []
        self._parked_sorted = 0
        self._width = self.INITIAL_WIDTH
        # --- bookkeeping ----------------------------------------------
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._cancelled_pending = 0
        self._compactions = 0
        self._promotions = 0
        self._far_spills = 0
        self._max_run = 0
        #: The one instrumentation slot (see :mod:`repro.sim.probe`): when
        #: set *before* :meth:`run`, the probe brackets every fired
        #: callback and counts scheduler traffic.  ``None`` (the default)
        #: selects the bare loop and costs one branch per ``schedule()``.
        self.probe: Optional[Probe] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of pending records, including cancelled ones."""
        return (
            (len(self._run) - self._run_i)
            + len(self._near)
            + len(self._far)
            + len(self._parked)
        )

    @property
    def cancelled_pending(self) -> int:
        """Number of cancelled events still occupying scheduler slots."""
        return self._cancelled_pending

    @property
    def compactions(self) -> int:
        """Number of structure compactions performed (see :meth:`_compact`)."""
        return self._compactions

    @property
    def promotions(self) -> int:
        """Number of near-bucket promotions (sorted-run rebuilds) so far."""
        return self._promotions

    @property
    def far_spills(self) -> int:
        """Records pulled from the far window into near buckets so far."""
        return self._far_spills

    @property
    def max_run(self) -> int:
        """Largest run size seen at promotion, before any cut and not
        counting in-run inserts (scheduler health metric)."""
        return self._max_run

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``priority`` breaks ties among events at the same instant (lower
        fires first); the insertion sequence breaks remaining ties, so
        same-time same-priority events fire in FIFO order.

        Returns the :class:`Event`, which the caller may :meth:`~Event.cancel`.
        Callers that never cancel should use :meth:`post`, which skips
        the handle allocation entirely.
        """
        if not 0.0 <= delay < _INF:
            # One comparison rejects negatives, inf and NaN alike: NaN
            # fails every comparison, and letting it into the ordered
            # tiers would silently corrupt the (time, priority, seq)
            # total order instead of failing loudly here.
            raise SimulationError(  # simperf: allow-alloc(error path)
                f"delay must be finite and >= 0, got {delay!r}"  # simperf: allow-alloc(error path)
            )
        return self._schedule_at(self._now + delay, callback, args, priority)

    def post(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback(*args)`` with no cancellation handle.

        The allocation-free fast path for fire-and-forget events — link
        serialization completions, propagation deliveries, ACK dispatch —
        which dominate event traffic and are never cancelled.  Ordering
        semantics are identical to :meth:`schedule` (``post`` consumes a
        sequence number from the same counter), only the :class:`Event`
        allocation and its back-reference bookkeeping are skipped.  The
        tier dispatch is :meth:`_insert`'s, inlined: this is the
        per-packet path.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(  # simperf: allow-alloc(error path)
                f"delay must be finite and >= 0, got {delay!r}"  # simperf: allow-alloc(error path)
            )
        time = self._now + delay
        self._seq = seq = self._seq + 1
        record = (time, priority, seq, None, callback, args)  # simperf: allow-alloc(calendar-queue record tuple; inherent to scheduling)
        if time < self._run_end:
            run = self._run
            insort(run, record, self._run_i)
            if len(run) > self.RUN_MAX:
                self._trim_run()
        elif time < self._horizon:
            self._near.append(record)
        elif time < self._far_end:
            self._far.append(record)
            if time < self._far_tail_min:
                self._far_tail_min = time
        else:
            self._parked.append(record)
        if self.probe is not None:
            self.probe.on_push(self.pending_events)

    def post_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """:meth:`post` at an absolute simulation time, stored verbatim.

        ``now + (time - now)`` is not always ``time`` in floating point,
        so a caller that holds absolute times (a precomputed arrival
        schedule) posts them here to fire at exactly the time it holds.
        """
        self._check_time(time)
        self._insert(time, priority, None, callback, args)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """:meth:`schedule` at an absolute simulation time, stored verbatim."""
        self._check_time(time)
        return self._schedule_at(time, callback, args, priority)

    def _check_time(self, time: float) -> None:
        if not self._now <= time < _INF:
            raise SimulationError(  # simperf: allow-alloc(error path)
                f"cannot schedule at t={time!r}: not finite or before now={self._now!r}"  # simperf: allow-alloc(error path)
            )

    def _schedule_at(
        self, time: float, callback: Callable[..., None], args: tuple, priority: int
    ) -> Event:
        event = Event(time, priority, 0, callback, args)  # simperf: allow-alloc(cancellation handle is the documented cost of schedule; post() is the alloc-free path)
        event.sim = self
        event.seq = self._insert(time, priority, event, callback, args)
        return event

    def _insert(
        self,
        time: float,
        priority: int,
        handle: Any,
        callback: Callable[..., None],
        args: tuple,
    ) -> int:
        """File one record at absolute ``time``; return its sequence number.

        The one insert behind everything but :meth:`post`.  ``handle`` is
        None or an object whose ``seq`` the caller sets to the returned
        number: the record is live while the two match.
        """
        self._seq = seq = self._seq + 1
        record = (time, priority, seq, handle, callback, args)  # simperf: allow-alloc(calendar-queue record tuple; inherent to scheduling)
        if time < self._run_end:
            run = self._run
            insort(run, record, self._run_i)
            if len(run) > self.RUN_MAX:
                self._trim_run()
        elif time < self._horizon:
            self._near.append(record)
        elif time < self._far_end:
            self._far.append(record)
            if time < self._far_tail_min:
                self._far_tail_min = time
        else:
            self._parked.append(record)
        if self.probe is not None:
            self.probe.on_push(self.pending_events)
        return seq

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------

    def _note_cancelled(self) -> None:
        """Count one record its handle just voided (zeroed or replaced its ``seq``).

        Called by :meth:`Event.cancel` and by a timer re-arm that moves
        its deadline earlier, after the handle no longer matches the
        record, so a compaction run from here already drops it.

        Lazy deletion leaves cancelled events in place until their
        scheduled time; when they dominate (long runs cancel an RTO timer
        per ACK burst), sorts and spills churn through mostly-dead
        records.  Rebuilding once the dead fraction passes
        ``COMPACT_FRACTION`` keeps the amortized cost constant.
        """
        self._cancelled_pending += 1
        if (
            self._cancelled_pending > self.COMPACT_MIN_CANCELLED
            and self._cancelled_pending * 2 > self.pending_events
        ):
            self._compact()

    @staticmethod
    def _alive(record: EventRecord) -> bool:
        handle = record[3]
        return handle is None or handle.seq == record[2]

    def _compact(self) -> None:
        """Drop cancelled records from all four tiers, in place.

        In place (slice assignment) because :meth:`run` may hold a local
        alias of the run list; safe mid-run because the loop re-reads the
        consumption index after every callback.
        """
        alive = self._alive
        self._run[:] = [r for r in self._run[self._run_i:] if alive(r)]
        self._run_i = 0
        self._near[:] = [r for r in self._near if alive(r)]
        for tier in (self._far, self._parked):
            tier[:] = [r for r in tier if alive(r)]
            tier.sort()
        self._far_tail_min = _INF
        self._parked_sorted = len(self._parked)
        self._cancelled_pending = 0
        self._compactions += 1

    # ------------------------------------------------------------------
    # Tier promotion
    # ------------------------------------------------------------------

    def _open_window(self, horizon: float) -> None:
        """Start the next far window at ``horizon >= far_end``; fill it from the parked tier.

        The one place parked records are looked at: sorted (only if any
        were appended since the last window), cut at the new ``far_end``
        with a single ``bisect``, and the slice appended to the far
        window.  Every record already there is below the old ``far_end``
        and every parked one at or past it, so a clean far window stays
        sorted, and a dirty one is about to be sorted by the caller (its
        tail is below ``horizon``).
        """
        far_end = self._far_end = horizon + self.FAR_WINDOW * self._width
        parked = self._parked
        if len(parked) > self._parked_sorted:
            parked.sort()
        idx = bisect_left(parked, (far_end,))
        self._far.extend(parked[:idx])
        del parked[:idx]
        self._parked_sorted = len(parked)

    def _spill_far(self, horizon: float) -> None:
        """Move far records with ``time < horizon`` into the near bucket.

        Opens the next window first when ``horizon`` has reached
        ``far_end``, and sorts the far window (one Timsort, cheap — the
        prefix is already sorted) when its unsorted tail could hold a
        spill candidate; then a single ``bisect`` bounds the spill slice.
        The bisect may run over the tail too: every record there is at
        or past ``horizon`` by then.  Records at exactly ``horizon`` stay
        far: the probe ``(horizon,)`` compares below every real record at
        that time, so ``bisect_left`` lands on the tier boundary.
        """
        if horizon >= self._far_end:
            self._open_window(horizon)
        far = self._far
        if self._far_tail_min < horizon:
            far.sort()
            self._far_tail_min = _INF
        if not far or far[0][0] >= horizon:
            return
        idx = bisect_left(far, (horizon,))
        self._near.extend(far[:idx])
        self._far_spills += idx
        del far[:idx]

    def _promote(self) -> bool:
        """Build the next sorted run; return False when nothing is pending.

        Never runs user code: the loop calls it between events, so the
        tier invariants can be rearranged atomically.
        """
        near = self._near
        if near:
            near.sort()
        else:
            # Jump the window to the earliest pending event: sparse phases
            # (idle network, lone RTO pending) skip ahead in one step
            # instead of sliding the window bucket by bucket.
            far = self._far
            if far:
                start = far[0][0]
                if self._far_tail_min < start:
                    start = self._far_tail_min
            elif self._parked:
                start = min(self._parked)[0]
            else:
                return False
            horizon = start + self._width
            self._horizon = horizon
            self._spill_far(horizon)
            near = self._near  # the spilled slice — already sorted
        size = len(near)
        self._run = near
        self._run_i = 0
        self._run_end = self._horizon
        self._near = []
        if size > self.RUN_MAX:
            self._cut_run(self.RUN_MAX)
        self._promotions += 1
        if size > self._max_run:
            self._max_run = size
        # Adapt the bucket width to the observed density.
        if size > self.RUN_HI:
            if self._width > self.MIN_WIDTH:
                self._width *= 0.5
        elif size < self.RUN_LO and self._width < self.MAX_WIDTH:
            self._width *= 2.0
        if self._run_end == self._horizon:
            # Consumed the whole near window: slide it one bucket and
            # spill the far records that just became near.
            horizon = self._horizon + self._width
            self._horizon = horizon
            self._spill_far(horizon)
        probe = self.probe
        if probe is not None:
            probe.on_promote(size)
        return True

    def _cut_run(self, keep: int) -> None:
        """Return the run's records from index ``keep`` on to the near bucket.

        The cut falls at a *time boundary*, before the first record
        sharing the ``keep``-th record's instant: records sharing one
        instant must stay in one tier, or a later-scheduled
        lower-priority record could overtake them.  When every record
        before ``keep`` shares that instant there is no cut.
        """
        run = self._run
        cut_time = run[keep][0]
        cut = bisect_left(run, (cut_time,))
        if cut > 0:
            self._near.extend(run[cut:])
            del run[cut:]
            self._run_end = cut_time

    def _trim_run(self) -> None:
        """Bound a run that in-run inserts have grown past ``RUN_MAX``.

        Drops the consumed prefix and, if the unconsumed records alone
        still pass ``RUN_MAX``, cuts them back to ``RUN_HI``, so what a
        run retains and what one insert moves stay bounded however long
        a dense phase inside one wide bucket lasts.  Called from inside
        a callback, so it works in place: the loop re-reads the run and
        its index every event.
        """
        run = self._run
        del run[: self._run_i]
        self._run_i = 0
        if len(run) > self.RUN_MAX:
            self._cut_run(self.RUN_HI)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the event loop.

        Args:
            until: stop once the clock would pass this time.  Events at
                exactly ``until`` still fire.  The clock is advanced to
                ``until`` on a timed stop so metric windows close cleanly.
            max_events: safety valve; stop after this many fired events.

        Returns:
            The simulation time when the loop stopped.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")  # simperf: allow-alloc(error path, checked once per run)
        self._running = True
        self._stopped = False
        stop_time = _INF if until is None else until
        remaining = _INF if max_events is None else max_events
        probe = self.probe
        # Both loops re-read _run/_run_i every iteration (a cancel inside
        # a callback can trigger a compaction that rebuilds the run and
        # rewinds the index) and fetch the next record with a narrow
        # try/except instead of a length check: the IndexError only ever
        # means "run consumed", because nothing else runs inside the try.
        exhausted = False
        try:
            if probe is None and max_events is None:
                # Bare loop: the default configuration for experiments
                # (no probe, no event budget).  Identical semantics minus
                # the probe calls and the ``remaining`` countdown; keeping
                # the hot loop branch-free is worth the duplication.
                while True:
                    i = self._run_i
                    run = self._run
                    try:
                        record = run[i]
                    except IndexError:
                        if self._promote():  # simperf: allow-alloc(amortized: one rebuild per calendar batch)
                            continue
                        exhausted = True
                        break
                    time = record[0]
                    if time > stop_time:
                        if stop_time > self._now:
                            self._now = stop_time
                        break
                    handle = record[3]
                    if handle is not None:
                        if handle.seq != record[2]:
                            self._run_i = i + 1
                            self._cancelled_pending -= 1
                            continue
                        handle.seq = 0
                    self._run_i = i + 1
                    self._now = time
                    args = record[5]
                    if args:
                        record[4](*args)
                    else:
                        record[4]()
                    self._events_processed += 1
                    if self._stopped:
                        break
            else:
                # Probed loop: the probe brackets every fired callback,
                # and the event budget (max_events) is counted here too.
                if probe is None:
                    probe = NO_PROBE
                while True:
                    i = self._run_i
                    run = self._run
                    try:
                        record = run[i]
                    except IndexError:
                        if self._promote():  # simperf: allow-alloc(amortized: one rebuild per calendar batch)
                            continue
                        exhausted = True
                        break
                    time = record[0]
                    if time > stop_time:
                        if stop_time > self._now:
                            self._now = stop_time
                        break
                    handle = record[3]
                    if handle is not None:
                        if handle.seq != record[2]:
                            self._run_i = i + 1
                            self._cancelled_pending -= 1
                            probe.on_discard()
                            continue
                        handle.seq = 0
                    self._run_i = i + 1
                    self._now = time
                    callback = record[4]
                    args = record[5]
                    probe.on_event_fired(time, record[1], callback, args)
                    callback(*args)
                    probe.on_event_settled()
                    self._events_processed += 1
                    if self._stopped:
                        break
                    remaining -= 1
                    if remaining <= 0:
                        break
        finally:
            self._running = False
        if exhausted and until is not None and stop_time > self._now:
            self._now = stop_time
        return self._now

    def stop(self) -> None:
        """Request the loop to stop after the current callback returns."""
        self._stopped = True


__all__ = ["Simulator", "SimulationError", "EventRecord"]

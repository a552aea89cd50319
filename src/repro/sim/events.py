"""Cancellation handles for the discrete-event scheduler.

A pending scheduler record is live while its handle's ``seq`` equals
the record's own sequence number (see :mod:`repro.sim.engine`).  A
handle's ``seq`` names its one live record, or is 0 when it has none;
the engine zeroes it when the record fires.  The ``seq`` counter also
keeps events scheduled for the same instant in FIFO order, which keeps
whole simulations reproducible bit-for-bit for a given seed.

Cancellation is lazy: :meth:`Event.cancel` zeroes the handle's ``seq``
and the scheduler skips the record, uncounted, when it reaches it.  This
is much cheaper than removing the record from whichever tier of the
calendar queue holds it and is the standard approach for timer-heavy
network simulations.  The scheduler counts pending cancellations and
compacts its four tiers when they dominate (see
:meth:`repro.sim.engine.Simulator._compact`).

A :class:`Timer` is its own handle: an arm files one record pointing at
the timer, with the plain function :meth:`Timer._fire` as its callback,
and allocates no :class:`Event` or bound method.  A re-arm that moves the
deadline earlier voids the old record exactly as :meth:`Event.cancel`
would.  Disarming does *not* void it: the pending record stays and
fires as a counted no-op (see :meth:`Timer.cancel`).  :meth:`Timer.close`
also drops the callback, so that no-op record no longer keeps the
timer's owner alive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

from repro.sim.priorities import MODEL

if TYPE_CHECKING:  # pragma: no cover - import cycle breaker, types only
    from repro.sim.engine import Simulator


class Event:
    """A scheduled callback.

    Instances are created by :meth:`repro.sim.engine.Simulator.schedule`;
    user code normally only keeps a reference in order to :meth:`cancel`.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled", "sim")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        args: Tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.priority = priority
        #: The live record's sequence number; 0 once fired or cancelled.
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: The scheduler holding the record, told when a cancel voids it.
        self.sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it.

        Cancelling an already-cancelled or already-fired event is a no-op.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self.seq:
            self.seq = 0
            sim = self.sim
            if sim is not None:
                sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.time:.9f}, prio={self.priority}, {name}, {state})"


class Timer:
    """A restartable one-shot timer; its own cancellation handle.

    TCP retransmission timers are re-armed on every ACK; naively that would
    push one scheduler record per ACK.  ``Timer`` instead tracks a *deadline*:
    when a restart only moves the deadline later (the overwhelmingly common
    case for RTO timers), the already-scheduled record is kept and simply
    re-files itself on wake-up if the deadline has moved.  This keeps
    scheduler traffic at one event per expiry period instead of one per ACK.
    """

    __slots__ = ("_sim", "_callback", "_deadline", "seq", "_due")

    def __init__(self, sim: "Simulator", callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        self._deadline: Optional[float] = None
        #: Sequence number of the timer's live record, 0 when none is pending.
        self.seq = 0
        #: When the live record fires (meaningful only while ``seq``).
        self._due = 0.0

    @property
    def armed(self) -> bool:
        """Whether the timer is currently pending."""
        return self._deadline is not None

    def start(self, delay: float) -> None:
        """Arm the timer ``delay`` seconds from now, replacing any pending arm."""
        sim = self._sim
        deadline = sim.now + delay
        self._deadline = deadline
        if self.seq:
            if self._due <= deadline:
                return  # The pending record will re-arm itself on wake-up.
            # Moved earlier: void the pending record (it no longer matches).
            self.seq = 0
            sim._note_cancelled()
        sim._check_time(deadline)
        self._due = deadline
        self.seq = sim._insert(deadline, MODEL, self, Timer._fire, (self,))  # simperf: allow-alloc(the record's args tuple; an arm allocates nothing else)

    def restart(self, delay: float) -> None:
        """Alias of :meth:`start`; reads better at call sites that re-arm."""
        self.start(delay)

    def cancel(self) -> None:
        """Disarm the timer if pending.

        The pending record is not voided: it still fires, finds no
        deadline and returns, and the engine counts it like any event.
        """
        self._deadline = None

    def close(self) -> None:
        """Disarm for good and let go of the callback (and its owner).

        A pending record still fires as the counted no-op :meth:`cancel`
        leaves, but it no longer references whoever owned the timer.
        """
        self._deadline = None
        self._callback = _closed

    def _fire(self) -> None:
        # The engine zeroed ``seq``: this record was the live one.
        deadline = self._deadline
        if deadline is None:
            return  # Cancelled since the record was filed.
        sim = self._sim
        now = sim.now
        if deadline > now:
            # Deadline moved later while we were queued; sleep again.  The
            # due time is now + (deadline - now), as a relative delay gives.
            due = self._due = now + (deadline - now)
            self.seq = sim._insert(due, MODEL, self, Timer._fire, (self,))  # simperf: allow-alloc(the record's args tuple; an arm allocates nothing else)
            return
        self._deadline = None
        self._callback()


def _closed() -> None:
    raise RuntimeError("timer started after close()")


__all__ = ["Event", "Timer"]

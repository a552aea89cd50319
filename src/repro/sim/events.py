"""Event objects for the discrete-event scheduler.

Events are small, slotted objects ordered by ``(time, priority, seq)``.
The ``seq`` counter guarantees deterministic FIFO ordering among events
scheduled for the same instant, which keeps whole simulations reproducible
bit-for-bit for a given seed.

Cancellation uses lazy deletion: :meth:`Event.cancel` flips a flag and the
scheduler skips cancelled events when it pops them.  This is much cheaper
than removing the record from whichever tier of the calendar queue holds
it and is the standard approach for timer-heavy network simulations.
The scheduler counts pending cancellations and compacts its four tiers
when they dominate (see :meth:`repro.sim.engine.Simulator._compact`).

A :class:`Timer` does *not* cancel its event when disarmed: the pending
record stays and fires as a counted no-op (see :meth:`Timer.cancel`).
:meth:`Timer.close` also drops the callback, so that no-op record no
longer keeps the timer's owner alive.
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
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Back-reference set by the scheduler while the event is pending,
        #: so cancellation can be counted for compaction; the scheduler
        #: clears it when the event is popped.
        self.sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it.

        Cancelling an already-cancelled or already-fired event is a no-op.
        """
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            sim._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.time:.9f}, prio={self.priority}, {name}, {state})"


class Timer:
    """A restartable one-shot timer built on top of :class:`Event`.

    TCP retransmission timers are re-armed on every ACK; naively that would
    push one scheduler record per ACK.  ``Timer`` instead tracks a *deadline*:
    when a restart only moves the deadline later (the overwhelmingly common
    case for RTO timers), the already-scheduled event is kept and simply
    re-schedules itself on wake-up if the deadline has moved.  This keeps
    scheduler traffic at one event per expiry period instead of one per ACK.
    """

    __slots__ = ("_sim", "_callback", "_event", "_deadline")

    def __init__(self, sim: "Simulator", callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None
        self._deadline: Optional[float] = None

    @property
    def armed(self) -> bool:
        """Whether the timer is currently pending."""
        return self._deadline is not None

    def start(self, delay: float) -> None:
        """Arm the timer ``delay`` seconds from now, replacing any pending arm."""
        deadline = self._sim.now + delay
        self._deadline = deadline
        event = self._event
        if event is not None and not event.cancelled:
            if event.time <= deadline:
                return  # The pending event will re-arm itself on wake-up.
            event.cancel()
        self._event = self._sim.schedule(delay, self._fire, priority=MODEL)

    def restart(self, delay: float) -> None:
        """Alias of :meth:`start`; reads better at call sites that re-arm."""
        self.start(delay)

    def cancel(self) -> None:
        """Disarm the timer if pending.

        The pending event is not cancelled: it still fires, finds no
        deadline and returns, and the engine counts it like any event.
        """
        self._deadline = None

    def close(self) -> None:
        """Disarm for good and let go of the callback (and its owner).

        A pending event still fires as the counted no-op :meth:`cancel`
        leaves, but it no longer references whoever owned the timer.
        """
        self._deadline = None
        self._callback = _closed

    def _fire(self) -> None:
        self._event = None
        deadline = self._deadline
        if deadline is None:
            return  # Cancelled since the event was queued.
        now = self._sim.now
        if deadline > now:
            # Deadline moved later while we were queued; sleep again.
            self._event = self._sim.schedule(
                deadline - now, self._fire, priority=MODEL
            )
            return
        self._deadline = None
        self._callback()


def _closed() -> None:
    raise RuntimeError("timer started after close()")


__all__ = ["Event", "Timer"]

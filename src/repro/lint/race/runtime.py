"""The runtime side of simrace: the same-instant write sanitizer.

A :class:`RaceMonitor` is the ``race``-kind probe on the engine's probe
seam (:mod:`repro.sim.probe`).  It uses the two hooks the probed loop
calls around every fired callback:

* ``on_event_fired(time, priority, callback, args)`` — before the fire:
  batch bookkeeping (a *batch* is a maximal run of events sharing
  ``(time, priority)`` — precisely the events whose mutual order is
  insertion-order only) and a shallow snapshot of the callback's bound
  receiver;
* ``on_event_settled()`` — after the fire: the receiver's state is
  diffed against the snapshot; every attribute the callback *rebound* is
  recorded, and a rebind of an attribute a **different** callback
  already rebound in the same batch is a collision.

The monitor observes and never perturbs: it schedules nothing, mutates
nothing it observes, holds only transient references, and the golden
digests must be bit-identical with ``REPRO_RACE=1``
(``tests/test_simrace.py`` pins this).

Detection semantics: a "write" is an attribute *rebinding* (snapshot
diff by identity-then-equality), so in-place container mutation
(``list.append``) and a rebind to an equal value are invisible.
Nothing is written while events fire: :meth:`RaceMonitor.finish` returns
the run's report (see OBSERVABILITY.md for its shape).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.probe import Probe


def _state_of(receiver: Any) -> Dict[str, Any]:
    """Shallow snapshot of an object's attribute bindings.

    Plain instances snapshot ``__dict__``; slotted instances (the
    engine's own :class:`~repro.sim.events.Timer`, for one) walk the
    MRO's ``__slots__``.  Unreadable descriptors are skipped — the
    sanitizer must never raise out of the hot loop.
    """
    d = getattr(receiver, "__dict__", None)
    if d is not None:
        return dict(d)
    state: Dict[str, Any] = {}
    for klass in type(receiver).__mro__:
        for name in getattr(klass, "__slots__", ()):
            try:
                state[name] = getattr(receiver, name)
            except AttributeError:
                continue
    return state


def _rebound(old: Any, new: Any) -> bool:
    """Whether an attribute binding changed between snapshots."""
    if old is new:
        return False
    try:
        return bool(old != new)
    except Exception:
        # Incomparable values: the binding moved to a different object.
        return True


class RaceMonitor(Probe):
    """Observes same-instant batches and records write collisions."""

    kind = "race"

    def __init__(self) -> None:
        #: Collision records, in observation order (see OBSERVABILITY.md).
        self.collisions: List[Dict[str, Any]] = []
        self.events = 0
        self.batches = 0
        #: (time, priority) of the batch being traced; None before the
        #: first event.
        self._batch: Optional[Tuple[float, int]] = None
        #: (id(receiver), attr) -> (writer qualname, receiver) for the
        #: current batch.  The receiver reference keeps the object alive
        #: so ids cannot be recycled within a batch.
        self._writers: Dict[Tuple[int, str], Tuple[str, Any]] = {}
        #: (receiver, before-snapshot, qualname, time, priority) of the
        #: event currently firing, or None.
        self._pending: Optional[Tuple[Any, Dict[str, Any], str, float, int]] = None

    # -- engine hooks --------------------------------------------------

    def on_event_fired(
        self, when: float, priority: int, callback: Callable[..., None], args: tuple
    ) -> None:
        """Called by the engine loop immediately before a callback fires."""
        self.events += 1
        self._pending = None  # drop stale state from a raised callback
        batch_key = (when, priority)
        if batch_key != self._batch:
            self._batch = batch_key
            self._writers.clear()
            self.batches += 1
        receiver = getattr(callback, "__self__", None)
        if receiver is None:
            return  # plain function: no instance state to trace
        qualname = getattr(callback, "__qualname__", repr(callback))
        self._pending = (
            receiver, _state_of(receiver), qualname, when, priority
        )

    def on_event_settled(self) -> None:
        """Called by the engine loop after the callback returned."""
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        receiver, before, qualname, when, priority = pending
        after = _state_of(receiver)
        missing = object()
        for attr in after.keys() | before.keys():
            if not _rebound(before.get(attr, missing), after.get(attr, missing)):
                continue
            key = (id(receiver), attr)
            prior = self._writers.get(key)
            self._writers[key] = (qualname, receiver)
            if prior is not None and prior[0] != qualname:
                self._record_collision(
                    when, priority, receiver, attr, prior[0], qualname
                )

    # -- reporting -----------------------------------------------------

    def _record_collision(
        self,
        when: float,
        priority: int,
        receiver: Any,
        attr: str,
        first: str,
        second: str,
    ) -> None:
        self.collisions.append({
            "time": when,
            "priority": priority,
            "receiver": type(receiver).__qualname__,
            "attr": attr,
            "first": first,
            "second": second,
        })

    def finish(self, context: str = "") -> Dict[str, Any]:
        """The race report: the run's totals and every collision record."""
        return {
            "events": self.events,
            "batches": self.batches,
            "collisions": len(self.collisions),
            "records": list(self.collisions),
        }


__all__ = ["RaceMonitor"]

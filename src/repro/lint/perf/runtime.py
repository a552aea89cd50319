"""The runtime side of simperf: the per-hot-function allocation sanitizer.

An :class:`AllocMonitor` is the ``alloc``-kind probe on the engine's
probe seam (:mod:`repro.sim.probe`).  It uses the two hooks the probed
loop calls around every fired callback:

* ``on_event_fired(time, priority, callback, args)`` — before the fire:
  if the callback resolves to a function registered in ``hotpaths.toml``
  (memoized by the underlying function object), the tracemalloc peak is
  reset and the traced-memory baseline captured;
* ``on_event_settled()`` — after the fire: the peak delta over the
  baseline is attributed to that hot function.

The monitor observes and never perturbs: tracemalloc tracks allocator
traffic out of band, the monitor schedules nothing and mutates nothing
it observes, and the golden digests must be bit-identical with
``REPRO_ALLOC=1`` (``tests/test_simperf.py`` pins this).

Attribution semantics: CPython's float/tuple free lists bypass the
allocator, so a hot function that *recycles* objects in steady state
shows sporadic deltas at worst; ints have no free list, so scalar
arithmetic boxes one traced ``PyLong`` per operation — deltas at or
below :data:`SCALAR_NOISE_BYTES` are therefore discounted entirely.  A
function is reported as an *allocator* only when it shows a traced
allocation above that floor on a majority of its firings
(:meth:`AllocMonitor.allocators`) — structural per-event allocation,
not free-list warmup noise.  The static cross-check
(``python -m repro.lint.smoke``) then demands that every such function
has an allocation site or allow-alloc pragma reachable in its summary
call graph; anything else is an *unexplained* allocation.
"""

from __future__ import annotations

import tracemalloc
from typing import Any, Callable, Dict, List, Optional

from repro.lint.perf.hotpaths import HotPathRegistry
from repro.sim.probe import Probe

#: Peak deltas at or below one boxed scalar are measurement noise, not
#: allocation: CPython 3.11 has no int free list, so any arithmetic past
#: the small-int cache (a sequence counter, ``x += 1``) boxes a fresh
#: 28-byte ``PyLong`` (rounded to 32 by pymalloc) that tracemalloc duly
#: traces.  That boxing is the cost of *Python*, not of the function
#: under test, and no real object construction hides under it — the
#: smallest tuple/list/dict/instance all exceed 32 bytes.
SCALAR_NOISE_BYTES = 32
#: The share of its firings on which a hot function must allocate to be
#: reported: a majority separates structural per-event allocation (a
#: constructor on every fire) from free-list warmup noise, which shows
#: up on a handful of early firings only.
ALLOCATOR_MIN_RATIO = 0.5


class AllocMonitor(Probe):
    """Attributes tracemalloc peak deltas to registered hot functions."""

    kind = "alloc"

    def __init__(
        self,
        registry: Optional[HotPathRegistry] = None,
        trace_all: bool = False,
    ) -> None:
        self.registry = (
            registry if registry is not None else HotPathRegistry.load()
        )
        #: Trace every callback (micro-cell mode), not just registered
        #: hot functions; attribution keys stay dotted qnames.
        self.trace_all = trace_all
        self.events = 0
        self.hot_events = 0
        #: dotted qname -> {"events", "alloc_events", "bytes"}
        self.stats: Dict[str, Dict[str, int]] = {}
        #: function object -> dotted qname (or None when not registered).
        self._resolved: Dict[Any, Optional[str]] = {}
        #: dotted qname of the hot callback currently firing, or None.
        self._pending: Optional[str] = None
        self._baseline = 0
        self._started_tracing = not tracemalloc.is_tracing()
        if self._started_tracing:
            tracemalloc.start()

    def close(self) -> None:
        """Release tracemalloc, if this monitor started it."""
        if self._started_tracing and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracing = False

    # -- engine hooks --------------------------------------------------

    def _resolve(self, callback: Callable[..., None]) -> Optional[str]:
        func = getattr(callback, "__func__", callback)
        try:
            return self._resolved[func]
        except KeyError:
            pass
        except TypeError:  # unhashable callable: never a registered method
            return None
        module = getattr(func, "__module__", "") or ""
        qualname = getattr(func, "__qualname__", "") or ""
        dotted = f"{module}.{qualname}"
        if self.trace_all:
            resolved: Optional[str] = dotted
        else:
            resolved = dotted if dotted in self.registry else None
        self._resolved[func] = resolved
        return resolved

    def on_event_fired(
        self, when: float, priority: int, callback: Callable[..., None], args: tuple
    ) -> None:
        """Called by the engine loop immediately before a callback fires."""
        self.events += 1
        dotted = self._resolve(callback)
        if dotted is None:
            self._pending = None
            return
        self.hot_events += 1
        self._pending = dotted
        if tracemalloc.is_tracing():
            # Baseline first, reset second: get_traced_memory() reads the
            # counters *before* building its result tuple, so this order
            # keeps the monitor's own transient tuple out of the peak
            # window.  Reversed, every event shows a ~64-byte phantom
            # delta and every callback looks like an allocator.
            self._baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()

    def on_event_settled(self) -> None:
        """Called by the engine loop after the callback returned."""
        dotted = self._pending
        if dotted is None:
            return
        self._pending = None
        delta = 0
        if tracemalloc.is_tracing():
            _current, peak = tracemalloc.get_traced_memory()
            delta = peak - self._baseline
            delta = 0 if delta <= SCALAR_NOISE_BYTES else delta
        entry = self.stats.get(dotted)
        if entry is None:
            entry = {"events": 0, "alloc_events": 0, "bytes": 0}
            self.stats[dotted] = entry
        entry["events"] += 1
        if delta > 0:
            entry["alloc_events"] += 1
            entry["bytes"] += delta

    # -- reporting -----------------------------------------------------

    def allocators(self) -> List[str]:
        """Hot functions that allocated on ≥ :data:`ALLOCATOR_MIN_RATIO`
        of their firings."""
        return sorted(
            dotted
            for dotted, entry in self.stats.items()
            if entry["events"] > 0
            and entry["alloc_events"] / entry["events"] >= ALLOCATOR_MIN_RATIO
        )

    def finish(self, context: str = "") -> Dict[str, Any]:
        """The allocation report: the run's totals and per-function stats."""
        return {
            "events": self.events,
            "hot_events": self.hot_events,
            "allocators": self.allocators(),
            "functions": {name: dict(self.stats[name]) for name in sorted(self.stats)},
        }


__all__ = ["ALLOCATOR_MIN_RATIO", "AllocMonitor", "SCALAR_NOISE_BYTES"]

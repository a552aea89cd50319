"""The engine profiler: where simulation wall-time goes, by component.

A :class:`Profiler` is the ``profile``-kind
:class:`~repro.sim.probe.Probe`.  While attached to a simulator it
buckets every fired event — count and cumulative callback wall-time —
under a *component* key derived from the callback's
``__module__``/``__qualname__`` (``net.link.Link._finish_transmission``,
``transport.tcp.TcpSender._on_ack``, ...), and tracks heap health:
pushes, pops, compactions and peak heap size.

The zero-cost-when-disabled contract is the probe seam's
(:mod:`repro.sim.probe`): an unprofiled simulator runs the bare loop.
The engine never reads a host clock; the profiler reads its own, last
thing in ``on_event_fired`` and first thing in ``on_event_settled``, so
the wall-clock read lives here (besides the runner's cell timer, the one
module that reads a host clock) and the timed window is the
callback plus one call/return pair.

Wall-times are obviously host-dependent; everything else in a
:class:`ProfileSnapshot` — per-component event counts, heap counters — is
deterministic for a given spec, which is what the telemetry determinism
tests pin (see :func:`repro.obs.records.deterministic_view`).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro.sim.probe import Probe

#: Strip this prefix from callback modules: every component is ours.
_PACKAGE_PREFIX = "repro."


def component_of(callback: Callable[..., Any]) -> str:
    """The profiling bucket for a callback: ``module.Qualified.name``.

    Bound methods of the same class share one bucket (the function
    object, not the instance, is what identifies a component).
    """
    qualname = getattr(callback, "__qualname__", None)
    if qualname is None:
        qualname = type(callback).__name__
    module = getattr(callback, "__module__", "") or ""
    if module.startswith(_PACKAGE_PREFIX):
        module = module[len(_PACKAGE_PREFIX):]
    return f"{module}.{qualname}" if module else qualname


@dataclass(frozen=True)
class ComponentStat:
    """One profiling bucket: events fired and cumulative callback time."""

    component: str
    events: int
    wall_s: float


@dataclass(frozen=True)
class HeapStats:
    """Scheduler-health counters over the profiled window.

    The name predates the calendar-queue engine; the counters now cover
    its four tiers.  ``promotions``/``max_run`` count sorted-run rebuilds
    and the largest run seen at promotion (in-run inserts not counted),
    ``far_spills`` counts records pulled from
    the far window into near buckets.
    """

    pushes: int
    pops: int
    compactions: int
    peak_size: int
    promotions: int = 0
    far_spills: int = 0
    max_run: int = 0


@dataclass(frozen=True)
class ProfileSnapshot:
    """An immutable, picklable view of a :class:`Profiler`'s counters.

    ``components`` is sorted by component name so two snapshots of the
    same deterministic run compare equal field-for-field except in the
    ``wall_s`` columns.
    """

    components: Tuple[ComponentStat, ...]
    heap: HeapStats
    events: int
    callback_wall_s: float

    def hotspots(self, limit: int = 10) -> List[ComponentStat]:
        """The costliest components by cumulative callback wall-time."""
        ranked = sorted(
            self.components, key=lambda c: (-c.wall_s, -c.events, c.component)
        )
        return ranked[:limit]

    def as_dict(self) -> dict:
        """A JSON-ready view (the telemetry record's ``profile`` field)."""
        return {
            "events": self.events,
            "callback_wall_s": self.callback_wall_s,
            "components": [
                {"component": c.component, "events": c.events, "wall_s": c.wall_s}
                for c in self.components
            ],
            "hotspots": [
                {"component": c.component, "events": c.events, "wall_s": c.wall_s}
                for c in self.hotspots()
            ],
            "heap": {
                "pushes": self.heap.pushes,
                "pops": self.heap.pops,
                "compactions": self.heap.compactions,
                "peak_size": self.heap.peak_size,
                "promotions": self.heap.promotions,
                "far_spills": self.heap.far_spills,
                "max_run": self.heap.max_run,
            },
        }

    def format(self, limit: int = 10) -> str:
        """A text hot-spot table for the ``profile`` CLI subcommand."""
        lines = [
            f"{'component':<52} {'events':>10} {'wall (ms)':>10} {'%time':>6}"
        ]
        total = self.callback_wall_s
        for stat in self.hotspots(limit):
            share = 100.0 * stat.wall_s / total if total > 0 else 0.0
            lines.append(
                f"{stat.component:<52} {stat.events:>10,} "
                f"{stat.wall_s * 1e3:>10.2f} {share:>5.1f}%"
            )
        heap = self.heap
        lines.append(
            f"{len(self.components)} components, {self.events:,} events, "
            f"{total * 1e3:.2f} ms in callbacks"
        )
        lines.append(
            f"heap: {heap.pushes:,} pushes, {heap.pops:,} pops, "
            f"{heap.compactions} compactions, peak size {heap.peak_size:,}"
        )
        lines.append(
            f"calendar: {heap.promotions:,} promotions "
            f"(max run {heap.max_run:,}), {heap.far_spills:,} far spills"
        )
        return "\n".join(lines)


class Profiler(Probe):
    """Buckets fired events and callback wall-time by component.

    Attach with :meth:`attach` (or construct objects under
    ``probing(Profiler())`` and let :class:`~repro.net.network.Network`
    attach its simulator for you), run the simulation, then
    :meth:`finish` (the snapshot is this kind's report).
    """

    kind = "profile"

    def __init__(self) -> None:
        #: component name -> [events, cumulative seconds]; mutated on the
        #: hot path, so plain lists instead of dataclasses.
        self._buckets: Dict[str, List[Any]] = {}
        #: function object -> component name memo (avoids re-deriving
        #: strings for every fired event).
        self._names: Dict[Any, str] = {}
        self._sims: List[Any] = []
        #: The callback now firing and the clock reading taken before it.
        self._callback: Any = None
        self._started = 0.0
        self.pushes = 0
        self.pops = 0
        self.peak_size = 0
        self.promotions = 0
        self.max_run = 0

    def attach(self, sim: Any) -> None:
        """Start profiling ``sim``."""
        super().attach(sim)
        self._sims.append(sim)

    # -- engine hooks (hot path) ---------------------------------------

    def on_push(self, pending: int) -> None:
        """One ``schedule()``; ``pending`` is the heap after the push."""
        self.pushes += 1
        if pending > self.peak_size:
            self.peak_size = pending

    def on_event_fired(
        self, time: float, priority: int, callback: Callable[..., Any], args: tuple
    ) -> None:
        self._callback = callback
        self._started = perf_counter()

    def on_event_settled(self) -> None:
        """One fired event: bucket the time its callback took."""
        elapsed = perf_counter() - self._started
        callback = self._callback
        self.pops += 1
        func = getattr(callback, "__func__", callback)
        name = self._names.get(func)
        if name is None:
            name = component_of(callback)
            self._names[func] = name
        bucket = self._buckets.get(name)
        if bucket is None:
            self._buckets[name] = [1, elapsed]
        else:
            bucket[0] += 1
            bucket[1] += elapsed

    def on_discard(self) -> None:
        """One cancelled event popped (and skipped) by the loop."""
        self.pops += 1

    def on_promote(self, size: int) -> None:
        """One near-bucket promotion produced a sorted run of ``size``."""
        self.promotions += 1
        if size > self.max_run:
            self.max_run = size

    # -- results -------------------------------------------------------

    def finish(self, context: str = "") -> ProfileSnapshot:
        """The profile report: the counters so far, frozen."""
        return self.snapshot()

    def snapshot(self) -> ProfileSnapshot:
        """Freeze the counters into a :class:`ProfileSnapshot`."""
        components = tuple(
            ComponentStat(name, bucket[0], bucket[1])
            for name, bucket in sorted(self._buckets.items())
        )
        heap = HeapStats(
            pushes=self.pushes,
            pops=self.pops,
            compactions=sum(sim.compactions for sim in self._sims),
            peak_size=self.peak_size,
            promotions=self.promotions,
            far_spills=sum(
                getattr(sim, "far_spills", 0) for sim in self._sims
            ),
            max_run=self.max_run,
        )
        return ProfileSnapshot(
            components=components,
            heap=heap,
            events=sum(c.events for c in components),
            callback_wall_s=sum(c.wall_s for c in components),
        )


__all__ = [
    "ComponentStat",
    "HeapStats",
    "ProfileSnapshot",
    "Profiler",
    "component_of",
]

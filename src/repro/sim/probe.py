"""The probe seam: the one way instrumentation reaches a simulation.

Everything that watches a run — the invariant validator
(:mod:`repro.validate`), the engine profiler (:mod:`repro.obs`), the
same-instant race sanitizer (:mod:`repro.lint.race`) and the allocation
sanitizer (:mod:`repro.lint.perf`) — is a :class:`Probe`.  This module
holds the whole seam and imports nothing from the rest of :mod:`repro`,
so the lowest layers can consult it at object-construction time without
import cycles and without loading any of the tools above:

* :class:`Probe` — the protocol, as a base class of no-ops;
* :class:`ProbeSet` — the composite a simulator carries when probes of
  more than one kind are attached, fanning out in :data:`BRACKET_ORDER`;
* the activation registry — one :data:`_ACTIVE` stack,
  :func:`probing`, and the :data:`ENV` table mapping the ``REPRO_*``
  switches to lazily imported probe factories.

Every kind has the same life: built, activated by :func:`probing` (new
networks attach it), closed when the block exits, then
:meth:`Probe.finish` does the kind's post-run work and returns its
picklable report.

The contract with the hot paths: a simulator whose ``probe`` slot is
``None`` (the default) runs the bare event loop and pays one ``is None``
branch per ``schedule()``/``post()`` and per promotion; constructors of
links, senders and connections pay one truth test of an empty list.
Probes observe and never perturb — they schedule nothing and mutate
nothing they watch, so results are bit-identical with any set attached.
And a probe never replaces what it watches: no class is swapped and no
callback rebound, so a probed run fires exactly the callbacks a bare run
fires and every probe sees them under the same ``module.qualname``.
What a probe needs from a fired event it reads from ``on_event_fired``,
which carries the record's ``args`` for that purpose.

Bracket order
-------------

Around every fired callback the engine calls ``on_event_fired`` and
``on_event_settled``.  A :class:`ProbeSet` fans ``on_event_fired`` out
validate → race → alloc → profile and ``on_event_settled`` in the
reverse order, so the profiler's two clock reads sit closest to the
callback and the allocation sanitizer's tracemalloc window is the next
bracket out (it contains the profiler's bookkeeping, nothing else).
"""

from __future__ import annotations

import contextlib
import importlib
import os
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

#: The probe kinds, outermost bracket first.  At most one probe of each
#: kind watches a simulator.
BRACKET_ORDER = ("validate", "race", "alloc", "profile")


class Probe:
    """The instrumentation protocol; every method is a no-op here.

    Subclasses set :attr:`kind` to one of :data:`BRACKET_ORDER` and
    override what they need.  ``on_*`` methods are called by the engine,
    ``watch_*`` by model constructors while the probe is active.
    """

    __slots__ = ()

    #: Which bracket this probe occupies (``""``: none, see ProbeSet).
    kind = ""

    def attach(self, sim: Any) -> None:
        """Start watching ``sim``, next to probes of other kinds on it."""
        current = sim.probe
        if current is None or current.kind == self.kind:
            sim.probe = self
            return
        if not isinstance(current, ProbeSet):
            current = sim.probe = ProbeSet(current)
        setattr(current, self.kind, self)

    def close(self) -> None:
        """Release what the probe holds; :func:`probing` calls it on exit."""

    def finish(self, context: str = "") -> Any:
        """The end of a probe's life: do the kind's post-run work and
        return its picklable report.  ``context`` names the run (a cell
        label) in whatever the probe raises."""
        return None

    # -- engine hooks --------------------------------------------------

    def on_event_fired(
        self, time: float, priority: int, callback: Callable[..., None], args: tuple
    ) -> None:
        """Immediately before ``callback(*args)`` fires at ``(time, priority)``."""

    def on_event_settled(self) -> None:
        """Immediately after that callback returned."""

    def on_push(self, pending: int) -> None:
        """One ``schedule()``/``post()``; ``pending`` counts it."""

    def on_promote(self, size: int) -> None:
        """One near-bucket promotion produced a sorted run of ``size``."""

    def on_discard(self) -> None:
        """The loop popped and skipped one cancelled event."""

    # -- construction-time hooks ---------------------------------------

    def watch_link(self, link: Any) -> None:
        """A :class:`~repro.net.link.Link` was added to a network."""

    def watch_sender(self, sender: Any) -> None:
        """A :class:`~repro.transport.tcp.TcpSender` was constructed."""

    def watch_connection(self, connection: Any) -> None:
        """An :class:`~repro.mptcp.connection.MptcpConnection` was built."""


#: Stands in for "no probe of this kind" inside a :class:`ProbeSet`, and
#: for the whole slot when ``run(max_events=...)`` needs the probed loop.
NO_PROBE = Probe()


class ProbeSet(Probe):
    """One probe per kind behind a simulator's single ``probe`` slot.

    The fan-out is spelled out rather than looped: it runs inside the
    allocation sanitizer's tracemalloc window, where a loop's iterator
    object would show up as a phantom allocation of every callback.
    """

    __slots__ = BRACKET_ORDER
    validate: Probe
    race: Probe
    alloc: Probe
    profile: Probe

    def __init__(self, *probes: Probe) -> None:
        self.validate = self.race = self.alloc = self.profile = NO_PROBE
        for probe in probes:
            setattr(self, probe.kind, probe)

    def on_event_fired(
        self, time: float, priority: int, callback: Callable[..., None], args: tuple
    ) -> None:
        self.validate.on_event_fired(time, priority, callback, args)
        self.race.on_event_fired(time, priority, callback, args)
        self.alloc.on_event_fired(time, priority, callback, args)
        self.profile.on_event_fired(time, priority, callback, args)

    def on_event_settled(self) -> None:
        self.profile.on_event_settled()
        self.alloc.on_event_settled()
        self.race.on_event_settled()
        self.validate.on_event_settled()

    def on_push(self, pending: int) -> None:
        self.validate.on_push(pending)
        self.race.on_push(pending)
        self.alloc.on_push(pending)
        self.profile.on_push(pending)

    def on_promote(self, size: int) -> None:
        self.validate.on_promote(size)
        self.race.on_promote(size)
        self.alloc.on_promote(size)
        self.profile.on_promote(size)

    def on_discard(self) -> None:
        self.validate.on_discard()
        self.race.on_discard()
        self.alloc.on_discard()
        self.profile.on_discard()


def member(probe: Optional[Probe], kind: str) -> Optional[Probe]:
    """The probe of ``kind`` behind a simulator's ``probe`` slot value."""
    if isinstance(probe, ProbeSet):
        probe = getattr(probe, kind)
    if probe is None or probe.kind != kind:
        return None
    return probe


# ----------------------------------------------------------------------
# Activation
# ----------------------------------------------------------------------


class EnvRow(NamedTuple):
    """How the environment switches one probe kind on."""

    #: Any of these set to a non-empty value other than ``0`` requests it.
    switches: Tuple[str, ...]
    #: Where the probe class lives; imported only when first needed.
    module: str
    factory: str
    #: What setting each switch does, one sentence each, in order
    #: (rendered into OBSERVABILITY.md's table).
    meanings: Tuple[str, ...]


_ON = "to every campaign cell (any non-empty value other than 0)."

#: The one table from ``REPRO_*`` variables to probe factories, and the
#: one place each of those variables is declared.  A switch means the
#: same thing for every kind: :func:`repro.runner.registry.execute`
#: builds a fresh probe per campaign cell, finishes it, and carries its
#: report home in the cell's metrics.
ENV: Dict[str, EnvRow] = {
    "validate": EnvRow(
        ("REPRO_VALIDATE",), "repro.validate.invariants", "Validator",
        ("Attach the runtime invariant validator " + _ON,),
    ),
    "race": EnvRow(
        ("REPRO_RACE",), "repro.lint.race.runtime", "RaceMonitor",
        ("Attach the same-instant race sanitizer " + _ON,),
    ),
    "alloc": EnvRow(
        ("REPRO_ALLOC",), "repro.lint.perf.runtime", "AllocMonitor",
        ("Attach the hot-path allocation sanitizer " + _ON,),
    ),
    "profile": EnvRow(
        ("REPRO_PROFILE", "REPRO_TELEMETRY"), "repro.obs.profiler", "Profiler",
        (
            "Attach the engine profiler " + _ON,
            "Directory for campaign telemetry JSONL; implies profiling "
            "(records embed the engine profile).",
        ),
    ),
}


def declared() -> List[Tuple[str, str]]:
    """Every variable of :data:`ENV` with its meaning, in table order."""
    return [pair for row in ENV.values() for pair in zip(row.switches, row.meanings)]


#: Explicitly activated probes; the innermost of each kind is in force.
_ACTIVE: List[Probe] = []


def setting(name: str) -> Optional[str]:
    """A ``REPRO_*`` variable's value; ``None`` when unset, empty or ``0``."""
    value = os.environ.get(name, "")
    return None if value in ("", "0") else value


@contextlib.contextmanager
def exported(name: str) -> Iterator[None]:
    """Switch the ``REPRO_*`` variable ``name`` on for a block, then restore it.

    Pool workers created inside the block inherit the switch; restoring
    keeps later runs in the same process from being silently probed.
    """
    previous = os.environ.get(name)
    os.environ[name] = "1"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[name]
        else:
            os.environ[name] = previous


def activate(probe: Probe) -> None:
    """Push ``probe``: objects constructed from now on register with it."""
    _ACTIVE.append(probe)


def deactivate(probe: Optional[Probe] = None) -> None:
    """Pop the innermost probe (must be ``probe`` when given)."""
    if not _ACTIVE:
        raise RuntimeError("no probe is active")
    if probe is not None and _ACTIVE[-1] is not probe:
        raise RuntimeError("deactivate() out of order: not the innermost probe")
    _ACTIVE.pop()


def active(kind: str) -> Optional[Probe]:
    """The ``kind`` probe new simulators attach to, or ``None``.

    The innermost explicitly activated one, so an experiment run
    *inside* a probed block gets its own probe without disturbing the
    outer one.  The environment never activates a probe by itself: a
    ``Network`` built by hand is probed through :func:`probing`.
    """
    for probe in reversed(_ACTIVE):
        if probe.kind == kind:
            return probe
    return None


def requested(kind: str) -> bool:
    """Whether campaign cells should carry a ``kind`` probe.

    True when one is explicitly active in this process or any of the
    kind's environment switches is on — which is how the CLI's
    ``--validate`` / ``--telemetry`` flags reach pool workers (children
    inherit the environment).
    """
    if active(kind) is not None:
        return True
    return any(setting(name) is not None for name in ENV[kind].switches)


def fresh(kind: str) -> Probe:
    """A new ``kind`` probe from its :data:`ENV` factory."""
    row = ENV[kind]
    factory: Callable[[], Probe] = getattr(
        importlib.import_module(row.module), row.factory
    )
    return factory()


def attach_active(sim: Any) -> None:
    """Attach the active probe of every kind to a new network's ``sim``."""
    for kind in BRACKET_ORDER:
        probe = active(kind)
        if probe is not None:
            probe.attach(sim)


def watchers() -> Tuple[Probe, ...]:
    """The active probes, innermost per kind.

    What constructors hand new links, senders and connections to
    (``watch_*``): a bare truth test — no environment read per
    constructed object — when nothing is active.
    """
    if not _ACTIVE:
        return ()
    found = map(active, BRACKET_ORDER)
    return tuple(probe for probe in found if probe is not None)


@contextlib.contextmanager
def probing(*probes: Probe) -> Iterator[Any]:
    """Run a block with ``probes`` active; close them afterwards.

    Usage::

        with probing(Profiler()) as prof:
            play(scene)  # anything that builds networks
        print(prof.finish().format())

    Yields the probe itself when given one, the tuple when given several.
    """
    for probe in probes:
        activate(probe)
    try:
        yield probes[0] if len(probes) == 1 else probes
    finally:
        for probe in reversed(probes):
            deactivate(probe)
            probe.close()


__all__ = [
    "BRACKET_ORDER",
    "ENV",
    "EnvRow",
    "NO_PROBE",
    "Probe",
    "ProbeSet",
    "activate",
    "active",
    "attach_active",
    "deactivate",
    "declared",
    "exported",
    "fresh",
    "member",
    "probing",
    "requested",
    "setting",
    "watchers",
]

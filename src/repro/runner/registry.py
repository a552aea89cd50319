"""Experiment-kind registry: the dispatch table behind :class:`RunSpec`.

Kinds are registered *lazily* as ``(module, function)`` name pairs rather
than callables, for two reasons:

* the experiment modules import :mod:`repro.runner` (their views fold a
  ``CampaignResult``), so the registry must not import them back at
  module-import time (cycle); and
* worker processes receive only the pickled :class:`RunSpec` and resolve
  the run function themselves, so nothing un-picklable crosses the
  process boundary.

``execute`` is the single choke point every simulation goes through: it
resolves the kind, runs it under the requested probes, times the run,
extracts the events-processed counter, and wraps everything in a
:class:`~repro.runner.spec.RunResult`.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict

from repro.runner.spec import SOURCE_RUN, CellMetrics, RunResult, RunSpec
from repro.sim.probe import BRACKET_ORDER, fresh, probing, requested


#: Simulation backends a kind can run on.  "packet" is the per-event
#: engine (repro.sim + repro.net); "fluid" the ODE backend (repro.fluid).
BACKEND_PACKET = "packet"
BACKEND_FLUID = "fluid"


@dataclass(frozen=True)
class KindEntry:
    """One registered experiment kind."""

    name: str
    module: str
    function: str
    #: Which simulation backend executes this kind (telemetry surfaces
    #: it, so mixed packet/fluid campaigns stay distinguishable).
    backend: str = BACKEND_PACKET

    def resolve(self) -> Callable[[Any], Any]:
        return getattr(importlib.import_module(self.module), self.function)


_KINDS: Dict[str, KindEntry] = {}


def register_kind(
    name: str,
    module: str,
    function: str,
    backend: str = BACKEND_PACKET,
) -> None:
    """Register (or re-register) an experiment kind."""
    _KINDS[name] = KindEntry(name, module, function, backend)


def backend_of(kind: str) -> str:
    """The simulation backend a registered kind runs on."""
    return kind_entry(kind).backend


def kind_entry(name: str) -> KindEntry:
    try:
        return _KINDS[name]
    except KeyError:
        known = ", ".join(sorted(_KINDS))
        raise KeyError(f"unknown run kind {name!r} (registered: {known})") from None


#: Attribute of every kind's result object carrying the simulator's
#: events-processed counter.  Fluid kinds count ODE state updates
#: through the same attribute, so events/sec stays the cross-backend
#: throughput currency.
EVENTS_ATTR = "events"


def events_of(value: Any) -> int:
    """The events-processed count a result carries (0 when untracked)."""
    return int(getattr(value, EVENTS_ATTR, 0) or 0)


def execute(spec: RunSpec) -> RunResult:
    """Run one spec from scratch, timed. Used inline and by pool workers.

    One rule for every probe kind: each kind that is requested (a probe
    of it is active in-process, or one of its ``REPRO_*`` switches is on
    — the CLI's ``--validate`` exports one for the command, a campaign
    with a telemetry sink another, and worker processes inherit them)
    gets a fresh probe for this cell, the cell runs under all of them,
    and each is finished: its report lands in ``metrics.probes`` under
    its kind, and a validator that saw a violation raises
    :class:`~repro.validate.invariants.InvariantError` naming the cell.
    Probes observe only; the result value is byte-identical with and
    without them.
    """
    run = kind_entry(spec.kind).resolve()
    probes = [fresh(kind) for kind in BRACKET_ORDER if requested(kind)]
    started = time.perf_counter()
    with probing(*probes):
        value = run(spec.config)
    reports = {probe.kind: probe.finish(spec.label()) for probe in probes}
    metrics = CellMetrics(
        wall_time_s=time.perf_counter() - started,
        events=events_of(value),
        source=SOURCE_RUN,
        probes=reports,
    )
    return RunResult(spec=spec, value=value, metrics=metrics)


# ----------------------------------------------------------------------
# Built-in kinds: one per single-simulation driver.  The fat-tree kind
# backs every Table 1-3 / Fig. 8-11 view; the testbed/torus/bottleneck
# kinds back Figs. 1/4/6/7.
# ----------------------------------------------------------------------

register_kind("fattree", "repro.experiments.fattree_eval", "_simulate")
register_kind("fig1", "repro.experiments.fig1_convergence", "_simulate")
register_kind("fig4", "repro.experiments.fig4_traffic_shifting", "_simulate")
register_kind("fig6", "repro.experiments.fig6_fairness", "_simulate")
register_kind("fig7", "repro.experiments.fig7_rate_compensation", "_simulate")
register_kind("workload", "repro.experiments.workload_matrix", "_simulate_workload")
register_kind("incast_sweep", "repro.experiments.workload_matrix", "_simulate_incast")
register_kind("fluid", "repro.fluid.backend", "_simulate", backend=BACKEND_FLUID)


__all__ = [
    "BACKEND_FLUID",
    "BACKEND_PACKET",
    "KindEntry",
    "register_kind",
    "backend_of",
    "kind_entry",
    "events_of",
    "execute",
]

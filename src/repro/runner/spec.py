"""The spec/result contract every experiment run flows through.

A :class:`RunSpec` names *what* to simulate — an experiment ``kind``
(registered in :mod:`repro.runner.registry`) plus that kind's frozen
config dataclass (:class:`~repro.experiments.fattree_eval.FatTreeScenario`,
:class:`~repro.experiments.fig1_convergence.Fig1Config`, ...).  Because
the config is frozen and the registered run functions are pure (each
builds its own :class:`~repro.sim.engine.Simulator` and
:class:`~repro.sim.random.RandomStreams`), a spec is a complete,
hashable, picklable description of a deterministic computation: the same
spec always produces the same result, whether it runs inline, in a
worker process, or is reloaded from the on-disk cache.

A :class:`RunResult` pairs the spec with the driver-specific result
object (``value``) and per-cell observability (:class:`CellMetrics`):
wall-clock time, events processed, events/sec, and where the result came
from (computed, memory tier, disk tier).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

#: Where a result came from.
SOURCE_RUN = "run"
SOURCE_MEMORY = "memory"
SOURCE_DISK = "disk"


@dataclass(frozen=True)
class RunSpec:
    """One cell of a campaign: an experiment kind plus its frozen config."""

    kind: str
    config: Any

    def label(self) -> str:
        """A short human-readable cell name for summaries and tables."""
        config = self.config
        parts = [self.kind]
        scheme = getattr(config, "scheme", None)
        if callable(getattr(config, "label", None)):
            parts.append(config.label())
        elif scheme is not None:
            parts.append(str(scheme))
        pattern = getattr(config, "pattern", None)
        if pattern is not None:
            parts.append(str(pattern))
        seed = getattr(config, "seed", None)
        if seed is not None:
            parts.append(f"s{seed}")
        return "/".join(parts)


@dataclass(frozen=True)
class CellMetrics:
    """Per-cell observability: cost and provenance of one result."""

    wall_time_s: float = 0.0
    events: int = 0
    source: str = SOURCE_RUN
    #: kind -> the :meth:`~repro.sim.probe.Probe.finish` report of every
    #: probe this cell ran under (empty for unprobed runs and cache hits
    #: alike).  Picklable, so pool workers' reports ride home inside the
    #: RunResult and the parent is the only process that writes them.
    probes: Dict[str, Any] = field(default_factory=dict)

    @property
    def profile(self) -> Any:
        """The cell's :class:`~repro.obs.profiler.ProfileSnapshot`, if profiled."""
        return self.probes.get("profile")

    @property
    def invariant_checks(self) -> int:
        """Invariant checks performed while computing this cell (0: not validated)."""
        return self.probes.get("validate", {}).get("checks", 0)

    @property
    def cached(self) -> bool:
        return self.source != SOURCE_RUN

    @property
    def events_per_sec(self) -> float:
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.events / self.wall_time_s


@dataclass
class RunResult:
    """A spec, its driver-specific result object, and how it was obtained."""

    spec: RunSpec
    value: Any
    metrics: CellMetrics


__all__ = [
    "RunSpec",
    "RunResult",
    "CellMetrics",
    "SOURCE_RUN",
    "SOURCE_MEMORY",
    "SOURCE_DISK",
]

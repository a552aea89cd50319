"""repro.obs — run telemetry and engine profiling.

The observability layer every performance PR measures itself against:

* :mod:`repro.obs.profiler` — the opt-in engine :class:`Profiler`
  (per-component event counts and callback wall-time, heap health);
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` recorder (one
  JSONL document per campaign cell);
* :mod:`repro.obs.records` — the typed record schema and the
  :func:`deterministic_view` the determinism tests pin.

Profiling is switched on through the probe seam
(``repro.sim.probe.probing(Profiler())`` or ``$REPRO_PROFILE``).  See
OBSERVABILITY.md for the record schema and the overhead contract.
"""

from repro.obs.profiler import (
    ComponentStat,
    HeapStats,
    Profiler,
    ProfileSnapshot,
    component_of,
)
from repro.obs.records import (
    TELEMETRY_SCHEMA,
    deterministic_view,
    run_record,
    to_jsonl,
)
from repro.obs.telemetry import RUNS_FILENAME, Telemetry, from_environment

__all__ = [
    "ComponentStat",
    "HeapStats",
    "Profiler",
    "ProfileSnapshot",
    "component_of",
    "TELEMETRY_SCHEMA",
    "deterministic_view",
    "run_record",
    "to_jsonl",
    "RUNS_FILENAME",
    "Telemetry",
    "from_environment",
]

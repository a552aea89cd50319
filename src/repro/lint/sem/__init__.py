"""Cross-module semantic analysis: the whole-program half of the lint pass.

Two phases (see LINTING.md for the rule catalog):

1. :mod:`repro.lint.sem.summary` extracts one JSON-serializable summary
   per file — symbol definitions, abstract argument values, scheduler
   calls, per-function cost records, locally decidable findings;
2. :mod:`repro.lint.sem.project` joins the summaries into whole-program
   tables and checks unit-sink dataflow, hook conformance and handler
   reachability against the sink registry
   (:mod:`repro.lint.sem.registry`), then hands the same summaries to
   the race (:mod:`repro.lint.race.analyzer`) and hot-path
   (:mod:`repro.lint.perf.analyzer`) joins.

``python -m repro.lint`` runs it on every invocation.
"""

from repro.lint.sem.project import ProjectAnalyzer, SemStats
from repro.lint.sem.registry import SinkRegistry, SinkRegistryError
from repro.lint.sem.summary import build_summary

__all__ = [
    "ProjectAnalyzer",
    "SemStats",
    "SinkRegistry",
    "SinkRegistryError",
    "build_summary",
]

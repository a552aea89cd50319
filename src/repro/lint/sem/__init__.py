"""The whole-program half of the lint pass.

Two phases (see LINTING.md for the rule catalog):

1. :mod:`repro.lint.sem.summary` extracts one JSON-serializable summary
   per file — call records, scheduler calls, per-function cost records,
   suppressions and allocation waivers;
2. :mod:`repro.lint.sem.project` hands the summaries to the race
   (:mod:`repro.lint.race.analyzer`) and hot-path
   (:mod:`repro.lint.perf.analyzer`) joins.

``python -m repro.lint`` runs it on every invocation.
"""

from repro.lint.sem.project import ProjectAnalyzer, SemStats
from repro.lint.sem.summary import build_summary

__all__ = [
    "ProjectAnalyzer",
    "SemStats",
    "build_summary",
]

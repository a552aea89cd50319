"""Same-instant event-ordering race detection (SIM018 + the sanitizer).

The engine's total event order is ``(time, priority, seq)``: two events
sharing ``(time, priority)`` fire in *insertion order*, which no model
code may depend on.  This package attacks that hazard from both sides:

* **Static join** (:mod:`repro.lint.race.analyzer`): consumes the
  per-file summaries — scheduler-call records with priority
  classification and callback shape — and reports SIM018 (a periodic
  callback scheduled at an unnamed priority, the PR 4 sampler-bug
  shape).  Part of every ``python -m repro.lint`` run.

* **Runtime sanitizer** (:mod:`repro.lint.race.runtime`): the
  ``race``-kind probe on the engine's probe seam
  (:mod:`repro.sim.probe`), enabled with ``REPRO_RACE=1`` or
  ``probing(RaceMonitor())``.  It snapshot-diffs each callback's
  receiver state and records write collisions within an
  equal-``(time, priority)`` run to JSONL, without ever perturbing the
  simulation.  ``python -m repro.lint.smoke`` runs it over the golden
  scenarios.
"""

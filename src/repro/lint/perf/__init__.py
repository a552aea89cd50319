"""Profile-guided hot-path performance analysis (SIM019, SIM020).

PR 6 leaned the engine and link hot paths to an allocation-free
per-event floor; this package *protects* that floor:

* **Static join** (:mod:`repro.lint.perf.analyzer`): consumes the
  per-file summaries — per-function cost records with every allocation
  site and in-loop attribute chain — and joins them against the
  hot-path registry (``hotpaths.toml``, see
  :mod:`repro.lint.perf.hotpaths`).  SIM019 flags allocations in
  registered hot functions (waivable per line with
  ``# simperf: allow-alloc(<reason>)``), SIM020 unhoisted attribute
  chains in hot loops.  Part of every ``python -m repro.lint`` run.

* **Runtime sanitizer** (:mod:`repro.lint.perf.runtime`): the
  ``alloc``-kind probe on the engine's probe seam
  (:mod:`repro.sim.probe`) — a tracemalloc window around every fired
  hot callback, enabled with ``REPRO_ALLOC=1`` or
  ``probing(AllocMonitor())``.  ``python -m repro.lint.smoke``
  cross-checks dynamically observed allocators against the static
  explanation closure on the golden scenarios, with bit-identical
  digests.
"""

"""repro.runner — the unified campaign runner (spec/result layer).

Every experiment in the repo — testbed (Figs. 4/6), torus (Fig. 7),
single-bottleneck (Fig. 1) and the whole fat-tree evaluation (Tables
1-3, Figs. 8-11) — flows through one contract:

* :class:`~repro.runner.spec.RunSpec` — *what* to run: an experiment
  ``kind`` plus its frozen config dataclass; hashable and picklable.
* :class:`~repro.runner.spec.RunResult` — the driver-specific result
  plus :class:`~repro.runner.spec.CellMetrics` (wall-clock, events,
  events/sec, cache provenance).
* :class:`~repro.runner.campaign.Campaign` — runs a grid of specs,
  consulting a two-tier :class:`~repro.runner.cache.RunCache` (bounded
  in-process LRU + content-addressed on-disk pickles) and fanning cache
  misses over a process pool.  Results merge in input order, so
  ``jobs=N`` output is bit-identical to serial output.

Quick use::

    from repro.runner import Campaign, RunSpec
    from repro.experiments.fattree_eval import FatTreeScenario

    specs = [RunSpec("fattree", FatTreeScenario(scheme=s, subflows=n))
             for s, n in (("dctcp", 1), ("xmp", 2), ("xmp", 4))]
    outcome = Campaign(jobs=4).run(specs)
    print(outcome.summary())
"""

from repro.runner.cache import (
    MISS,
    DiskCache,
    MemoryCache,
    RunCache,
    default_cache,
    default_cache_dir,
    reset_default_cache,
    spec_fingerprint,
)
from repro.runner.campaign import Campaign, CampaignResult, run_spec
from repro.runner.registry import (
    execute,
    events_of,
    kind_entry,
    register_kind,
)
from repro.runner.spec import CellMetrics, RunResult, RunSpec

__all__ = [
    "Campaign",
    "CampaignResult",
    "CellMetrics",
    "DiskCache",
    "MISS",
    "MemoryCache",
    "RunCache",
    "RunResult",
    "RunSpec",
    "default_cache",
    "default_cache_dir",
    "events_of",
    "execute",
    "kind_entry",
    "register_kind",
    "reset_default_cache",
    "run_spec",
    "spec_fingerprint",
]

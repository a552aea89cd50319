"""Fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures at the
scaled-down defaults of DESIGN.md §4; shared scenario settings and the
output helper live in ``_bench_common``.  All fat-tree benches route
their simulations through the :mod:`repro.runner` cache, so the modules
that share a scenario grid (Table 1 and Figs. 8/10/11 use the same
simulations) pay for each cell once per pytest session.

Two environment knobs extend that:

* ``REPRO_BENCH_CACHE`` — attach the runner's *disk* tier so warm runs
  skip simulation across sessions: ``1`` uses ``benchmarks/.cache``, any
  other value is taken as the cache directory.  Off by default so code
  changes can never be masked by stale results.
* ``REPRO_BENCH_JOBS`` — fan grid cells over N worker processes
  (deterministic); every grid bench runs on the one
  ``_bench_common.BENCH_CAMPAIGN`` built from it.
"""

from __future__ import annotations

import os
import pathlib
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(scope="session", autouse=True)
def _bench_run_cache():
    """Optionally attach a persistent disk tier to the runner cache."""
    target = os.environ.get("REPRO_BENCH_CACHE")
    if not target:
        yield
        return
    from repro.runner.cache import DiskCache, default_cache

    if target == "1":
        directory = pathlib.Path(__file__).parent / ".cache"
    else:
        directory = pathlib.Path(target).expanduser()
    cache = default_cache()
    previous = cache.disk
    cache.disk = DiskCache(directory)
    print(f"\n[runner] benchmark disk cache: {directory}")
    yield
    cache.disk = previous


@pytest.fixture
def once(benchmark):
    """Run the benched callable exactly once (simulations are their own
    statistics; repeating a deterministic 10-second run adds nothing)."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner

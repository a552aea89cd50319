"""Determinism smoke tests: digests are invariant to parallelism and caching.

The golden harness only works because the simulator is bit-deterministic;
these tests pin the two ways nondeterminism could sneak back in — the
process-pool execution path (jobs > 1) and the run cache (a stale or
corrupted cached result replacing a fresh simulation).
"""

from __future__ import annotations

import pytest

from repro.experiments.fattree_eval import FatTreeScenario
from repro.runner import Campaign, RunCache, RunSpec
from repro.validate.golden import digest_fattree, digest_hash
from repro.validate.scenarios import run_scenario

pytestmark = pytest.mark.invariants


def _specs():
    return [
        RunSpec(
            "fattree",
            FatTreeScenario(pattern=pattern, duration=0.008, k=4, seed=1),
        )
        for pattern in ("permutation", "incast")
    ]


def _hashes(campaign_result):
    return [digest_hash(digest_fattree(r.value)) for r in campaign_result.results]


class TestParallelismDeterminism:
    def test_jobs_1_equals_jobs_4(self):
        serial = Campaign(jobs=1, use_cache=False).run(_specs())
        parallel = Campaign(jobs=4, use_cache=False).run(_specs())
        assert _hashes(serial) == _hashes(parallel)

    def test_repeat_run_identical(self):
        first = Campaign(jobs=1, use_cache=False).run(_specs())
        second = Campaign(jobs=1, use_cache=False).run(_specs())
        assert _hashes(first) == _hashes(second)


class TestCacheDeterminism:
    def test_cache_hit_equals_cache_miss(self):
        cache = RunCache()  # fresh memory tier, no disk
        miss = Campaign(jobs=1, cache=cache, use_cache=True).run(_specs())
        hit = Campaign(jobs=1, cache=cache, use_cache=True).run(_specs())
        assert all(not r.metrics.cached for r in miss.results)
        assert all(r.metrics.cached for r in hit.results)
        assert _hashes(miss) == _hashes(hit)


class TestScenarioDeterminism:
    @pytest.mark.parametrize("name", ["bottleneck-xmp", "fattree-incast"])
    def test_scenario_digest_repeatable(self, name):
        first, _ = run_scenario(name)
        second, _ = run_scenario(name)
        assert digest_hash(first) == digest_hash(second)

    def test_validation_does_not_change_behaviour(self):
        # A validated and an unvalidated run of the same scenario must
        # produce identical digests: observers only read, never steer.
        from repro.experiments.fattree_eval import _simulate
        from repro.validate.golden import digest_fattree as digest
        from repro.validate import validating

        scenario = FatTreeScenario(duration=0.008, k=4, seed=1)
        bare = digest(_simulate(scenario))
        with validating() as validator:
            observed = digest(_simulate(scenario))
        assert validator.checks > 0
        assert digest_hash(bare) == digest_hash(observed)

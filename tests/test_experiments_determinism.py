"""Determinism of experiment drivers: same config, bit-identical results.

Reproducibility is a headline property for a simulation release; these
tests pin it at the driver level (the engine-level test lives in
test_behavior_invariants).
"""

import dataclasses

from repro.experiments.catalog import run
from repro.experiments.fattree_eval import FatTreeScenario
from repro.experiments.fig4_traffic_shifting import Fig4Config
from repro.experiments.fig6_fairness import Fig6Config
from repro.runner import Campaign, RunSpec

#: Every run below must really simulate: no cache lookup, no store.
FRESH = Campaign(use_cache=False)

TINY = FatTreeScenario(
    duration=0.05,
    perm_size_min=50_000,
    perm_size_max=150_000,
    seed=9,
)


class TestFatTreeDeterminism:
    def fingerprint(self, result):
        return (
            tuple(
                (r.flow_id, r.src, r.dst, r.delivered_bytes, r.complete_time)
                for label in sorted(result.records)
                for r in result.records[label]
            ),
            result.total_marked,
            result.total_dropped,
            result.events,
        )

    def run(self, scenario):
        return FRESH.run([RunSpec("fattree", scenario)]).results[0].value

    def test_same_seed_identical(self):
        a = self.run(TINY)
        b = self.run(TINY)
        assert self.fingerprint(a) == self.fingerprint(b)

    def test_different_seed_differs(self):
        a = self.run(TINY)
        b = self.run(dataclasses.replace(TINY, seed=10))
        assert self.fingerprint(a) != self.fingerprint(b)

    def test_scenario_hashable_and_equal(self):
        assert TINY == dataclasses.replace(TINY)
        assert hash(TINY) == hash(dataclasses.replace(TINY))
        assert TINY != dataclasses.replace(TINY, seed=10)


class TestSmallDriverDeterminism:
    def test_fig4_repeatable(self):
        config = Fig4Config(time_scale=0.02)
        a = run("fig4", config, FRESH)
        b = run("fig4", config, FRESH)
        assert a.series == b.series

    def test_fig6_repeatable(self):
        config = Fig6Config(time_scale=0.02)
        a = run("fig6", config, FRESH)
        b = run("fig6", config, FRESH)
        assert a.series == b.series

    def test_fig4_series_shapes(self):
        result = run("fig4", Fig4Config(time_scale=0.02))
        for column in result.series.columns.values():
            assert len(column) == len(result.series.times)

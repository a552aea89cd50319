"""Integration tests for the fat-tree evaluation driver and its views.

One tiny scenario per pattern is simulated (module-scoped, shared through
the driver's result cache) and the table/figure extractors are checked
for structure and for the paper's coarsest qualitative claims.
"""

import dataclasses

import pytest

from repro.experiments.catalog import run
from repro.experiments.fattree_eval import FatTreeScenario, run_fattree
from repro.runner import reset_default_cache

#: Tiny flows and a short horizon keep each simulation around a second.
BASE = FatTreeScenario(
    duration=0.12,
    perm_size_min=100_000,
    perm_size_max=400_000,
    random_mean=200_000,
    random_max=800_000,
    seed=3,
)

SCHEMES = (("dctcp", 1), ("xmp", 2))


@pytest.fixture(scope="module")
def perm_xmp():
    return run_fattree(dataclasses.replace(BASE, scheme="xmp", subflows=2))


class TestDriver:
    def test_records_produced(self, perm_xmp):
        assert perm_xmp.records["XMP-2"]
        for record in perm_xmp.records["XMP-2"]:
            assert record.complete_time is not None
            assert record.delivered_bytes >= record.size_bytes

    def test_rtt_samples_by_category(self, perm_xmp):
        assert perm_xmp.rtt_samples
        for category, samples in perm_xmp.rtt_samples.items():
            assert category in ("inter-pod", "inter-rack", "inner-rack")
            assert all(s > 0 for s in samples)

    def test_link_utilization_recorded(self, perm_xmp):
        layers = {layer for _, layer, _ in perm_xmp.link_utilization}
        assert {"core", "aggregation", "rack"} <= layers
        assert all(0 <= u <= 1 for _, _, u in perm_xmp.link_utilization)

    def test_cache_returns_same_object(self, perm_xmp):
        scenario = dataclasses.replace(BASE, scheme="xmp", subflows=2)
        assert run_fattree(scenario) is perm_xmp

    def test_cache_can_be_bypassed_and_cleared(self):
        scenario = dataclasses.replace(BASE, scheme="xmp", subflows=2, duration=0.02)
        first = run_fattree(scenario)
        assert run_fattree(scenario) is first
        reset_default_cache()
        second = run_fattree(scenario)
        assert second is not first

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            run_fattree(
                dataclasses.replace(BASE, pattern="storm")
            )

    def test_goodput_positive(self, perm_xmp):
        assert perm_xmp.mean_goodput_bps() > 50e6


class TestViews:
    def test_table1_structure_and_ordering(self):
        result = run("table1", BASE, schemes=SCHEMES, patterns=("permutation",))
        assert set(result.goodput_mbps) == {"DCTCP", "XMP-2"}
        assert result.goodput_mbps["XMP-2"]["permutation"] > 0
        text = result.format()
        assert "XMP-2" in text and "Permutation" in text

    def test_xmp_beats_dctcp_on_permutation(self):
        result = run("table1", BASE, schemes=SCHEMES, patterns=("permutation",))
        assert (
            result.goodput_mbps["XMP-2"]["permutation"]
            > result.goodput_mbps["DCTCP"]["permutation"]
        )

    def test_fig8_cdfs(self):
        result = run("fig8", BASE, schemes=SCHEMES)
        for label in ("DCTCP", "XMP-2"):
            points = result.cdfs[label]
            assert points
            fractions = [f for _, f in points]
            assert fractions == sorted(fractions)
            assert fractions[-1] == pytest.approx(1.0)

    def test_fig8_categories(self):
        result = run("fig8", BASE, schemes=SCHEMES)
        assert "DCTCP" in result.by_category
        for summary in result.by_category["DCTCP"].values():
            assert summary["min"] <= summary["p50"] <= summary["max"]

    def test_fig10_rtt_low_for_marking_schemes(self):
        result = run("rtt", BASE, schemes=SCHEMES)
        for label in ("DCTCP", "XMP-2"):
            for category, summary in result.rtt[label].items():
                # Marked queues hold RTT within a few ms everywhere.
                assert summary["p50"] < 3e-3

    def test_fig11_utilization_bounds(self):
        result = run("utilization", BASE, schemes=SCHEMES)
        for label, layers in result.utilization.items():
            for layer, summary in layers.items():
                assert 0.0 <= summary["min"] <= summary["max"] <= 1.0

    def test_jct_runs_produce_jobs(self):
        result = run("jct", BASE, schemes=(("xmp", 2),))
        assert result.jcts["XMP-2"]
        assert result.jobs_started["XMP-2"] >= 8
        assert 0.0 <= result.fraction_over("XMP-2") <= 1.0
        assert "XMP-2" in result.format_table3()

    def test_table2_cells(self):
        result = run("table2", BASE, schemes=(("dctcp", 1),), queue_sizes=(100,))
        xmp, other = result.cells[("dctcp", 100)]
        assert xmp > 0 and other > 0
        assert "XMP : DCTCP" in result.format()

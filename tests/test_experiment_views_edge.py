"""Edge-case tests for the experiment view modules (empty inputs, formats)."""

import dataclasses

import pytest

from repro.experiments.fattree_eval import FatTreeResult, FatTreeScenario
from repro.experiments.fig8_goodput_dist import Fig8Result
from repro.experiments.fig9_jct_cdf import DEADLINE, JctResult
from repro.experiments.fig10_rtt import Fig10Result
from repro.experiments.fig11_utilization import Fig11Result
from repro.experiments.table1_goodput import Table1Result, scenarios_for
from repro.experiments.table2_coexistence import Table2Result
from repro.metrics.goodput import FlowRecord
from repro.metrics.stats import cdf_points


class TestFatTreeResultHelpers:
    def empty(self):
        return FatTreeResult(scenario=FatTreeScenario(), duration=1.0)

    def test_empty_mean_goodput(self):
        assert self.empty().mean_goodput_bps() == 0.0

    def test_all_records_label_filter(self):
        result = self.empty()
        record = FlowRecord(0, "XMP-2", "a", "b", "any", 100, 0.0, 0.5, 100)
        result.records["XMP-2"] = [record]
        result.records["TCP"] = []
        assert result.all_records("XMP-2") == [record]
        assert result.all_records("TCP") == []
        assert result.all_records() == [record]

    def test_utilization_values_filters_layer(self):
        result = self.empty()
        result.link_utilization = [("a", "core", 0.5), ("b", "rack", 0.2)]
        assert result.utilization_values("core") == [0.5]

    def test_label_derivation(self):
        assert FatTreeScenario(scheme="xmp", subflows=2).label() == "XMP-2"
        assert FatTreeScenario(scheme="dctcp", subflows=1).label() == "DCTCP"


class TestScenarioGrid:
    def test_scenarios_for_cartesian(self):
        base = FatTreeScenario()
        grid = scenarios_for(base, schemes=(("xmp", 2), ("dctcp", 1)),
                             patterns=("permutation", "incast"))
        assert len(grid) == 4
        assert {s.pattern for s in grid} == {"permutation", "incast"}

    def test_scenarios_preserve_base_fields(self):
        base = FatTreeScenario(seed=77, duration=0.25)
        grid = scenarios_for(base, schemes=(("xmp", 2),), patterns=("random",))
        assert grid[0].seed == 77
        assert grid[0].duration == 0.25


class TestJctResultEdge:
    def test_empty_fraction_zero(self):
        result = JctResult()
        result.jcts["X"] = []
        result.jobs_started["X"] = 0
        assert result.fraction_over("X") == 0.0

    def test_truncated_jobs_not_counted_as_misses(self):
        result = JctResult()
        result.jcts["X"] = [0.01, 0.02]
        result.jobs_started["X"] = 10
        # Eight jobs still running, but all younger than the deadline.
        result.unfinished_ages["X"] = [0.05] * 8
        assert result.fraction_over("X") == 0.0

    def test_overdue_unfinished_count_as_misses(self):
        result = JctResult()
        result.jcts["X"] = [0.01]
        result.jobs_started["X"] = 3
        result.unfinished_ages["X"] = [DEADLINE * 2]
        assert result.fraction_over("X") == pytest.approx(0.5)

    def test_completed_misses_counted(self):
        result = JctResult()
        result.jcts["X"] = [0.01, DEADLINE * 2]
        result.jobs_started["X"] = 2
        result.unfinished_ages["X"] = []
        assert result.fraction_over("X") == pytest.approx(0.5)

    def test_format_table3_lists_all(self):
        result = JctResult()
        result.jcts = {"A": [0.01], "B": [0.5]}
        result.jobs_started = {"A": 1, "B": 1}
        text = result.format_table3()
        assert "A" in text and "B" in text


class TestFig8ResultEdge:
    def test_median_of_empty_cdf(self):
        result = Fig8Result(pattern="permutation")
        result.cdfs["X"] = []
        assert result.median("X") == 0.0

    def test_median_picks_middle(self):
        result = Fig8Result(pattern="permutation")
        result.cdfs["X"] = [(0.1, 0.33), (0.5, 0.66), (0.9, 1.0)]
        assert result.median("X") == 0.5

    def test_median_of_even_count_interpolates(self):
        # The locked linear percentile, not the upper-middle sample.
        result = Fig8Result(pattern="permutation")
        result.cdfs["X"] = cdf_points([0.2, 0.4, 0.6, 0.8])
        assert result.median("X") == pytest.approx(0.5)


class TestFormatters:
    def test_table1_format_contains_cells(self):
        result = Table1Result()
        result.goodput_mbps = {"XMP-2": {"permutation": 123.4}}
        result.patterns = ("permutation",)
        assert "123.4" in result.format()

    def test_table2_format_handles_partial_grid(self):
        result = Table2Result()
        result.cells[("tcp", 100)] = (500.0, 250.0)
        text = result.format()
        assert "XMP : TCP" in text
        assert "500.0 : 250.0" in text

    def test_fig10_format_handles_missing_category(self):
        result = Fig10Result(pattern="random")
        result.rtt = {"XMP-2": {"inter-pod": {"p50": 0.001, "mean": 0.001,
                                              "min": 0, "p10": 0, "p90": 0,
                                              "max": 0.002}}}
        text = result.format()
        assert "XMP-2" in text
        assert "-" in text  # placeholders for missing categories

    def test_fig11_spread_and_mean(self):
        result = Fig11Result(pattern="random")
        summary = {"min": 0.1, "p10": 0.2, "p50": 0.3, "p90": 0.4,
                   "max": 0.5, "mean": 0.3}
        result.utilization = {
            "XMP-2": {"core": dict(summary), "aggregation": dict(summary),
                      "rack": dict(summary)}
        }
        assert result.spread("XMP-2", "core") == pytest.approx(0.4)
        assert result.mean_utilization("XMP-2") == pytest.approx(0.3)
        assert "XMP-2" in result.format()

"""Tests for statistics, fairness and goodput records."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.fattree_eval import FatTreeResult, FatTreeScenario
from repro.experiments.fig8_goodput_dist import view as fig8_view
from repro.metrics.fairness import jain_index
from repro.metrics.fct import completion_times
from repro.metrics.goodput import FlowRecord, goodput_table
from repro.metrics.stats import cdf_points, mean, percentile, summarize
from repro.runner import CampaignResult, CellMetrics, RunResult, RunSpec


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_median_even_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_extremes(self):
        data = [5, 1, 9, 3]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 9

    def test_single_value(self):
        assert percentile([7], 33) == 7

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(
        values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100),
        q=st.floats(0, 100),
    )
    @settings(max_examples=80, deadline=None)
    def test_percentile_within_range_and_monotone(self, values, q):
        p = percentile(values, q)
        assert min(values) <= p <= max(values)
        assert percentile(values, 0) <= p <= percentile(values, 100)

    def test_matches_numpy_linear(self):
        numpy = pytest.importorskip("numpy")
        data = [0.3, 1.7, 2.2, 9.9, 4.4, 4.5]
        for q in (10, 25, 50, 75, 90, 99):
            assert percentile(data, q) == pytest.approx(
                float(numpy.percentile(data, q))
            )


class TestPercentileLock:
    """The repo-wide percentile interpolation is locked to 'linear'.

    Every reported number (EXPERIMENTS.md tables, golden digests, the
    workload FCT/queue-depth matrix) flows through :func:`percentile`;
    switching its method silently would shift p99s without any code
    "bug".  If this class fails, either restore linear interpolation or
    treat the change as a reportable behaviour change: re-bless the
    goldens and update the stats docstring and EXPERIMENTS.md together.
    """

    def test_locked_method_is_linear(self):
        # Hyndman-Fan type 7: rank (n - 1) * q / 100, interpolated.
        assert percentile([10.0, 20.0, 30.0], 25) == 15.0
        assert percentile([0.0, 1.0], 99) == pytest.approx(0.99)

    def test_default_call_uses_locked_method(self):
        # The linear signature: interpolated median, not an observed
        # sample.  nearest-rank would return 2.0 here.
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_nearest_rank_differs_and_is_an_observed_sample(self):
        """Where nearest-rank (ceil(n * q / 100)-th order statistic)
        would return an observed sample, the locked method does not."""
        data = [1.0, 2.0, 3.0, 4.0]
        assert percentile(data, 50) not in data  # nearest-rank: 2.0
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 99) == pytest.approx(99.01)  # nearest-rank: 99.0
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 4.0


class TestCdfAndSummary:
    def test_cdf_points_sorted_and_complete(self):
        points = cdf_points([3, 1, 2])
        assert points == [(1, 1 / 3), (2, 2 / 3), (3, 1.0)]

    def test_summarize_keys(self):
        summary = summarize([1, 2, 3, 4, 5])
        assert summary["min"] == 1
        assert summary["max"] == 5
        assert summary["p50"] == 3
        assert summary["mean"] == 3

    def test_summarize_empty(self):
        assert summarize([])["p50"] == 0.0

    def test_mean(self):
        assert mean([2, 4]) == 3
        assert mean([]) == 0.0


class TestJain:
    def test_perfect_fairness(self):
        assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_maximal_unfairness(self):
        assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_and_zero(self):
        assert jain_index([]) == 0.0
        assert jain_index([0, 0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_index([1, -1])

    @given(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1e9)),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_bounds(self, rates):
        index = jain_index(rates)
        assert 0.0 <= index <= 1.0 + 1e-9
        if any(r > 0 for r in rates):
            assert index >= 1.0 / len(rates) - 1e-9

    @given(
        rates=st.lists(st.floats(0.1, 1e6), min_size=1, max_size=20),
        scale=st.floats(0.1, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, rates, scale):
        assert jain_index(rates) == pytest.approx(
            jain_index([r * scale for r in rates])
        )


def record(goodput_mbps, duration=1.0, scheme="XMP-2", category="inter-pod"):
    size = int(goodput_mbps * 1e6 / 8 * duration)
    return FlowRecord(
        flow_id=0, scheme=scheme, src="a", dst="b", category=category,
        size_bytes=size, start_time=0.0, complete_time=duration,
        delivered_bytes=size,
    )


class TestFlowRecord:
    def test_goodput_of_finished_flow(self):
        r = record(100.0)
        assert r.goodput_bps() == pytest.approx(100e6)

    def test_unfinished_requires_now(self):
        r = FlowRecord(0, "X", "a", "b", "any", 100, 0.0, None, 50)
        with pytest.raises(ValueError):
            r.goodput_bps()
        assert r.goodput_bps(now=1.0) == pytest.approx(400.0)

    def test_completion_time(self):
        unfinished = FlowRecord(0, "X", "a", "b", "any", 1, 0.0, None, 0)
        assert completion_times([record(1.0, duration=2.5), unfinished]) == [2.5]

    def test_goodput_table(self):
        table = goodput_table({"A": [record(100), record(200)], "B": [record(50)]})
        assert table["A"] == pytest.approx(150e6)
        assert table["B"] == pytest.approx(50e6)

    def test_goodput_cdf(self):
        # Fig. 8(a)/(b)'s curve: the CDF of the records' goodputs.
        points = cdf_points([r.goodput_bps() for r in (record(300), record(100))])
        assert len(points) == 2
        assert points[0][0] == pytest.approx(100e6)
        assert points[-1][1] == 1.0

    def test_by_category(self):
        """Fig. 8(c)/(d)'s bars: a five-number goodput summary per flow
        category, normalized to the 1 Gbps link."""
        fattree = FatTreeResult(scenario=FatTreeScenario(scheme="xmp", subflows=2))
        fattree.records["XMP-2"] = [
            record(100, category="inner-rack"),
            record(300, category="inner-rack"),
            record(50, category="inter-pod"),
        ]
        spec = RunSpec("fattree", fattree.scenario)
        outcome = CampaignResult([RunResult(spec, fattree, CellMetrics())])
        summary = fig8_view([fattree.scenario], outcome).by_category["XMP-2"]
        assert summary["inner-rack"]["mean"] == pytest.approx(0.2)
        assert summary["inter-pod"]["max"] == pytest.approx(0.05)

    def test_goodputs_handles_mixture(self):
        finished = record(100)
        running = FlowRecord(0, "X", "a", "b", "any", 1000, 0.5, None, 1460)
        table = goodput_table({"X": [finished, running]}, now=1.0)
        assert table["X"] == pytest.approx((100e6 + 1460 * 8 / 0.5) / 2)

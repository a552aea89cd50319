"""Tests for the Fig. 1 convergence-time metric."""

import pytest

from repro.experiments.fig1_convergence import Fig1Config, Fig1Result
from repro.metrics.series import TimeSeries


def synthetic_result(rates_by_flow, interval=1.0, sample=0.1):
    config = Fig1Config(interval=interval, sample_interval=sample)
    result = Fig1Result(config=config)
    result.series = TimeSeries(rates_by_flow)
    for i, row in enumerate(zip(*rates_by_flow.values())):
        result.series.append(sample * (i + 1), row)
    return result


class TestConvergenceTime:
    def test_instant_convergence(self):
        # Two flows at exactly fair share from the very first sample.
        result = synthetic_result(
            {"flow1": [0.5e9] * 10, "flow2": [0.5e9] * 10}
        )
        result.segments = [(0.0, 1.0, 2, 1.0)]
        result.segment_flows = [[0, 1]]
        assert result.convergence_time(0) == pytest.approx(0.1)

    def test_late_convergence(self):
        # Flow 2 only reaches its share from sample 6 onward.
        f2 = [0.1e9] * 5 + [0.5e9] * 5
        f1 = [0.9e9] * 5 + [0.5e9] * 5
        result = synthetic_result({"flow1": f1, "flow2": f2})
        result.segments = [(0.0, 1.0, 2, 0.9)]
        result.segment_flows = [[0, 1]]
        assert result.convergence_time(0) == pytest.approx(0.6)

    def test_never_converges_returns_segment_length(self):
        result = synthetic_result(
            {"flow1": [0.9e9] * 10, "flow2": [0.1e9] * 10}
        )
        result.segments = [(0.0, 1.0, 2, 0.6)]
        result.segment_flows = [[0, 1]]
        assert result.convergence_time(0) == pytest.approx(1.0)

    def test_transient_excursion_resets(self):
        # Converged early, blips out at sample 7, back at 8: convergence
        # point is the last re-entry.
        f1 = [0.5e9] * 6 + [0.9e9] + [0.5e9] * 3
        f2 = [0.5e9] * 6 + [0.1e9] + [0.5e9] * 3
        result = synthetic_result({"flow1": f1, "flow2": f2})
        result.segments = [(0.0, 1.0, 2, 0.95)]
        result.segment_flows = [[0, 1]]
        assert result.convergence_time(0) == pytest.approx(0.8)

    def test_tolerance_widens_acceptance(self):
        # The band is CONVERGENCE_TOLERANCE (0.3) x the 0.5 Gbps fair share.
        for f1, f2, expected in ((0.7e9, 0.3e9, 1.0), (0.6e9, 0.4e9, 0.1)):
            result = synthetic_result({"flow1": [f1] * 10, "flow2": [f2] * 10})
            result.segments = [(0.0, 1.0, 2, 0.9)]
            result.segment_flows = [[0, 1]]
            assert result.convergence_time(0) == pytest.approx(expected)

    def test_mean_skips_single_flow_segments(self):
        result = synthetic_result(
            {"flow1": [1e9] * 10, "flow2": [0.0] * 10}
        )
        result.segments = [(0.0, 1.0, 1, 1.0)]
        result.segment_flows = [[0]]
        assert result.mean_convergence_time() == 0.0

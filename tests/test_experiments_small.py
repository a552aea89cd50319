"""Integration tests for the small-topology experiment drivers.

These run heavily compressed versions of Figs. 1/4/6/7 and assert the
*qualitative* claims of the paper hold: convergence to fairness, traffic
shifting away from congested paths, flow-level fairness regardless of
subflow count, and rate compensation with attenuation.
"""

import pytest

from repro.experiments.catalog import run
from repro.experiments.fig1_convergence import Fig1Config
from repro.experiments.fig4_traffic_shifting import Fig4Config
from repro.experiments.fig6_fairness import Fig6Config
from repro.experiments.fig7_rate_compensation import Fig7Config


@pytest.fixture(scope="module")
def fig1_bos():
    return run("fig1", Fig1Config(scheme="bos", beta=2.0, marking_threshold=20,
                                  interval=0.4, sample_interval=0.02))


@pytest.fixture(scope="module")
def fig4_result():
    return run("fig4", Fig4Config(beta=4.0, time_scale=0.1))


@pytest.fixture(scope="module")
def fig6_result():
    return run("fig6", Fig6Config(beta=4.0, time_scale=0.1))


@pytest.fixture(scope="module")
def fig7_result():
    return run("fig7", Fig7Config(beta=4.0, marking_threshold=20, time_scale=0.02))


class TestFig1:
    def test_series_cover_run(self, fig1_bos):
        assert len(fig1_bos.series) > 0
        assert set(fig1_bos.series.columns) == {f"flow{i}" for i in range(1, 5)}

    def test_halving_converges_to_fairness(self, fig1_bos):
        assert fig1_bos.worst_jain() > 0.85

    def test_flows_respect_start_stop_schedule(self, fig1_bos):
        # Flow 4 joins at step 3: it must be silent before that.
        interval = fig1_bos.config.interval
        early = [
            rate
            for time, rate in zip(fig1_bos.series.times, fig1_bos.series["flow4"])
            if time < 2.9 * interval
        ]
        assert max(early, default=0.0) == 0.0

    def test_single_flow_gets_full_link(self, fig1_bos):
        # Step 6: only flow 4 remains; it should fill ~1 Gbps.
        interval = fig1_bos.config.interval
        tail = [
            rate
            for time, rate in zip(fig1_bos.series.times, fig1_bos.series["flow4"])
            if time > 6.5 * interval
        ]
        assert sum(tail) / len(tail) > 0.8e9

    def test_segments_account_active_flows(self, fig1_bos):
        counts = [n for _, _, n, _ in fig1_bos.segments]
        assert counts == [1, 2, 3, 4, 3, 2, 1]


class TestFig4:
    def test_shifts_away_from_congested_path(self, fig4_result):
        phases = fig4_result.phases()
        baseline = fig4_result.mean_normalized("flow2-1", *phases["baseline"])
        congested = fig4_result.mean_normalized("flow2-1", *phases["bg_on_dn1"])
        assert congested < 0.6 * baseline

    def test_sibling_compensates(self, fig4_result):
        phases = fig4_result.phases()
        baseline = fig4_result.mean_normalized("flow2-2", *phases["baseline"])
        compensating = fig4_result.mean_normalized("flow2-2", *phases["bg_on_dn1"])
        assert compensating > baseline

    def test_roles_swap_when_background_moves(self, fig4_result):
        phases = fig4_result.phases()
        sub1 = fig4_result.mean_normalized("flow2-1", *phases["bg_on_dn2"])
        sub2 = fig4_result.mean_normalized("flow2-2", *phases["bg_on_dn2"])
        assert sub1 > sub2

    def test_recovers_after_background_leaves(self, fig4_result):
        phases = fig4_result.phases()
        r1 = fig4_result.mean_normalized("flow2-1", *phases["recovered"])
        r2 = fig4_result.mean_normalized("flow2-2", *phases["recovered"])
        assert r1 > 0.1 and r2 > 0.1


class TestFig6:
    def test_flow_level_fairness_despite_subflow_counts(self, fig6_result):
        assert fig6_result.fairness_all_flows() > 0.9

    def test_all_subflow_series_present(self, fig6_result):
        expected = {
            "flow1-1", "flow1-2", "flow1-3",
            "flow2-1", "flow2-2", "flow3-1", "flow4-1",
        }
        assert expected == set(fig6_result.series.columns)

    def test_stopped_flows_release_bandwidth(self, fig6_result):
        # After 25 s (scaled) flows 3 and 4 leave; flows 1-2 split the link.
        s = fig6_result.config.time_scale
        f1 = fig6_result.flow_rate_between(1, 26 * s, 30 * s)
        f2 = fig6_result.flow_rate_between(2, 26 * s, 30 * s)
        assert f1 + f2 > 0.8 * 300e6

    def test_three_subflow_flow_not_advantaged(self, fig6_result):
        s = fig6_result.config.time_scale
        f1 = fig6_result.flow_rate_between(1, 21 * s, 25 * s)
        f3 = fig6_result.flow_rate_between(3, 21 * s, 25 * s)
        assert f1 < 2.0 * f3  # nowhere near the 3x an uncoupled trio takes


class TestFig7:
    def scaled(self, result, name, start, end):
        s = result.config.time_scale
        return result.series.mean(name, start * s, end * s)

    def test_l3_subflows_collapse_under_background(self, fig7_result):
        pre = self.scaled(fig7_result, "flow3-1", 20, 25)
        congested = self.scaled(fig7_result, "flow3-1", 40, 45)
        assert congested < 0.5 * pre

    def test_siblings_compensate(self, fig7_result):
        pre = self.scaled(fig7_result, "flow3-2", 20, 25)
        congested = self.scaled(fig7_result, "flow3-2", 40, 45)
        assert congested > pre

    def test_link_closure_zeroes_l3_subflows(self, fig7_result):
        closed_21 = self.scaled(fig7_result, "flow2-2", 65, 70)
        closed_31 = self.scaled(fig7_result, "flow3-1", 65, 70)
        assert closed_21 < 1e7
        assert closed_31 < 1e7

    def test_far_flows_barely_move(self, fig7_result):
        # Attenuation: flow 5 shares no link with L3's neighbours' siblings.
        pre = self.scaled(fig7_result, "flow5-1", 20, 25)
        during = self.scaled(fig7_result, "flow5-1", 40, 45)
        assert during > 0.4 * pre

    def test_capacities_recorded(self, fig7_result):
        assert fig7_result.capacities == [0.8e9, 1.2e9, 2.0e9, 1.5e9, 0.5e9]

"""Bench: Fig. 6 — fairness irrespective of subflow count."""

import pytest

from _bench_common import emit

from repro.experiments.catalog import run
from repro.experiments.fig6_fairness import Fig6Config

TIME_SCALE = 0.25


@pytest.mark.parametrize("beta", [4.0, 6.0], ids=["beta4", "beta6"])
def test_fig6_fairness(once, beta):
    result = once(run, "fig6", Fig6Config(beta=beta, time_scale=TIME_SCALE))
    s = TIME_SCALE
    lines = [f"beta={beta}: flow rates in the all-active window (Mbps)"]
    for flow in (1, 2, 3, 4):
        rate = result.flow_rate_between(flow, 21 * s, 25 * s)
        lines.append(f"  flow {flow}: {rate / 1e6:7.1f}")
    lines.append(f"Jain index: {result.fairness_all_flows():.4f}")
    emit(f"fig6_fairness_beta{int(beta)}", "\n".join(lines))

    if beta == 4.0:
        # Paper: with beta=4 all four flows share equally regardless of
        # having 3/2/1/1 subflows.
        assert result.fairness_all_flows() > 0.9


def test_fig6_beta4_at_least_as_fair_as_beta6(once):
    def both():
        r4 = run("fig6", Fig6Config(beta=4.0, time_scale=TIME_SCALE))
        r6 = run("fig6", Fig6Config(beta=6.0, time_scale=TIME_SCALE))
        return r4.fairness_all_flows(), r6.fairness_all_flows()

    jain4, jain6 = once(both)
    emit(
        "fig6_beta_comparison",
        f"Jain(beta=4)={jain4:.4f}  Jain(beta=6)={jain6:.4f}",
    )
    assert jain4 > jain6 - 0.05  # beta=4 no less fair (paper: strictly fairer)

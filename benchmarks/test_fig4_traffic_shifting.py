"""Bench: Fig. 4 — traffic shifting on the two-bottleneck testbed."""

import pytest

from _bench_common import emit

from repro.experiments.catalog import run
from repro.experiments.fig4_traffic_shifting import Fig4Config

#: Compress the paper's 40 s schedule to 10 s of simulated time.
TIME_SCALE = 0.25


@pytest.mark.parametrize("beta", [4.0, 6.0], ids=["beta4", "beta6"])
def test_fig4_traffic_shifting(once, beta):
    result = once(run, "fig4", Fig4Config(beta=beta, time_scale=TIME_SCALE))
    phases = result.phases()
    lines = [f"beta={beta}: Flow 2 subflow rates (normalized to 300 Mbps)"]
    for phase, (start, end) in phases.items():
        m1 = result.mean_normalized("flow2-1", start, end)
        m2 = result.mean_normalized("flow2-2", start, end)
        lines.append(f"  {phase:>10}: subflow1={m1:.3f}  subflow2={m2:.3f}")
    emit(f"fig4_shifting_beta{int(beta)}", "\n".join(lines))

    baseline = result.mean_normalized("flow2-1", *phases["baseline"])
    congested = result.mean_normalized("flow2-1", *phases["bg_on_dn1"])
    sibling = result.mean_normalized("flow2-2", *phases["bg_on_dn1"])
    # The paper's claim: traffic shifts off the congested bottleneck and
    # the sibling compensates; beta=4 shifts decisively.
    assert congested < baseline
    if beta == 4.0:
        assert congested < 0.6 * baseline
        assert sibling > result.mean_normalized("flow2-2", *phases["baseline"])

"""Bench: Fig. 7 — rate compensation ('attenuated Dominos') on the torus."""

import pytest

from _bench_common import emit

from repro.experiments.catalog import run
from repro.experiments.fig7_rate_compensation import Fig7Config

#: Compress the paper's 70 s schedule to 3.5 s; intervals stay hundreds of
#: RTTs long.
TIME_SCALE = 0.05

#: The paper's (beta, K) pairs, K from Eq. 1 with the largest path BDP.
CONFIGS = [(4.0, 20), (5.0, 15), (6.0, 10)]


@pytest.mark.parametrize("beta,threshold", CONFIGS,
                         ids=[f"beta{int(b)}_k{k}" for b, k in CONFIGS])
def test_fig7_rate_compensation(once, beta, threshold):
    result = once(
        run, "fig7",
        Fig7Config(beta=beta, marking_threshold=threshold,
                   time_scale=TIME_SCALE),
    )
    s = TIME_SCALE

    def window(name, start, end):
        return result.normalized_mean(name, start * s, end * s)

    lines = [f"beta={beta} K={threshold}: normalized mean subflow rates"]
    lines.append(f"  {'subflow':<9} {'pre(20-25)':>10} {'cong(40-45)':>11} "
                 f"{'closed(65-70)':>13}")
    for i in range(1, 6):
        for j in (1, 2):
            name = f"flow{i}-{j}"
            lines.append(
                f"  {name:<9} {window(name, 20, 25):>10.3f} "
                f"{window(name, 40, 45):>11.3f} {window(name, 65, 70):>13.3f}"
            )
    emit(f"fig7_compensation_beta{int(beta)}", "\n".join(lines))

    # L3 subflows sink under background load and die when L3 closes.
    assert window("flow2-2", 40, 45) < 0.7 * window("flow2-2", 20, 25)
    assert window("flow3-1", 40, 45) < 0.7 * window("flow3-1", 20, 25)
    assert window("flow2-2", 65, 70) < 0.02
    assert window("flow3-1", 65, 70) < 0.02
    # Their siblings compensate.
    assert window("flow2-1", 40, 45) > window("flow2-1", 20, 25)
    assert window("flow3-2", 40, 45) > window("flow3-2", 20, 25)

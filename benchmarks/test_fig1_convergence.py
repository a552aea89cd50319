"""Bench: Fig. 1 — convergence/fairness of DCTCP vs constant-factor cuts."""

import pytest

from _bench_common import emit

from repro.experiments.catalog import run
from repro.experiments.fig1_convergence import Fig1Config

#: One simulated second per join/leave step (the paper used 5 s; 1 s is
#: ~4400 RTTs at 225 us, ample for steady state).
INTERVAL = 1.0


@pytest.mark.parametrize(
    "scheme,threshold",
    [("dctcp", 10), ("dctcp", 20), ("bos", 10), ("bos", 20)],
    ids=["dctcp_k10", "dctcp_k20", "halving_k10", "halving_k20"],
)
def test_fig1_convergence(once, scheme, threshold):
    config = Fig1Config(
        scheme=scheme,
        beta=2.0,  # "halving cwnd" panels
        marking_threshold=threshold,
        interval=INTERVAL,
        sample_interval=0.02,
    )
    result = once(run, "fig1", config)
    lines = [f"{scheme} K={threshold}: steady-state Jain index per segment"]
    for start, end, active, jain in result.segments:
        lines.append(
            f"  t=[{start:4.1f},{end:4.1f})s  active={active}  jain={jain:.4f}"
        )
    lines.append(f"worst multi-flow Jain: {result.worst_jain():.4f}")
    lines.append(
        "mean convergence time (30% band): "
        f"{result.mean_convergence_time():.3f}s of {INTERVAL:.1f}s segments"
    )
    emit(f"fig1_{scheme}_k{threshold}", "\n".join(lines))

    # Paper shape: the constant-factor cut converges to a fair share in
    # every segment; at K=20 both schemes utilize the link fully.
    if scheme == "bos":
        assert result.worst_jain() > 0.9
    # All schemes keep the single-flow segments at full rate.
    last_segment = result.segments[-1]
    assert last_segment[2] == 1

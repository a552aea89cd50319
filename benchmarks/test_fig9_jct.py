"""Bench: Fig. 9 — incast job-completion-time CDF."""

from _bench_common import BENCH_CAMPAIGN, BENCH_INCAST, emit

from repro.experiments.catalog import run
from repro.metrics.stats import percentile


def test_fig9_jct_cdf(once):
    result = once(run, "jct", BENCH_INCAST, BENCH_CAMPAIGN)
    lines = ["JCT CDF quantiles (ms):"]
    for label, jcts in result.jcts.items():
        if not jcts:
            lines.append(f"  {label:<7} (no completed jobs)")
            continue
        qs = "  ".join(
            f"p{q}={percentile(jcts, q) * 1e3:.1f}" for q in (10, 50, 90, 99)
        )
        lines.append(
            f"  {label:<7} {qs}  n={len(jcts)}/{result.jobs_started[label]}"
        )
    emit("fig9_jct_cdf", "\n".join(lines))

    # Paper shapes: the fast mass of the CDF sits ~10 ms for ECN schemes
    # and a cliff near RTOmin (~200 ms) marks incast collapses.
    for label in ("DCTCP", "XMP-2"):
        assert percentile(result.jcts[label], 50) < 0.1
    # Every scheme has jobs that finish before any collapse...
    for label in result.jcts:
        assert percentile(result.jcts[label], 10) < 0.05
    # ...and LIA's collapses are at least as common as XMP's.
    assert max(result.jcts["LIA-2"]) > 0.18
    assert percentile(result.jcts["LIA-2"], 90) >= percentile(
        result.jcts["XMP-2"], 90
    ) * 0.8

    # "It might not be a good practice to establish too many subflows":
    # XMP-4 saturates every path, so more of its jobs hit the RTO cliff
    # than XMP-2's (the paper's ~8%-second-collapse observation, amplified
    # at k=4 where 4 subflows cover all equal-cost paths).
    def collapse_fraction(label):
        jcts = result.jcts[label]
        return sum(1 for j in jcts if j > 0.18) / len(jcts)

    assert collapse_fraction("XMP-4") >= collapse_fraction("XMP-2") * 0.8

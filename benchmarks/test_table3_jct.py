"""Bench: Table 3 — mean JCT and fraction of jobs over 300 ms."""

from _bench_common import BENCH_CAMPAIGN, BENCH_INCAST, emit

from repro.experiments.catalog import run
from repro.experiments.fig9_jct_cdf import PAPER_TABLE3


def test_table3_jct(once):
    result = once(run, "jct", BENCH_INCAST, BENCH_CAMPAIGN)
    lines = [result.format_table3(), "", "Paper:"]
    for label, (mean_s, frac) in PAPER_TABLE3.items():
        lines.append(f"  {label:<6} {mean_s * 1e3:.0f} ms   >300ms: {frac:.1%}")
    emit("table3_jct", "\n".join(lines))

    # Paper shapes: DCTCP fastest; XMP in between (it saturates all
    # paths); LIA worst, with a visible deadline-miss fraction.
    assert result.mean_jct("DCTCP") <= result.mean_jct("XMP-2") * 1.2
    assert result.mean_jct("XMP-2") < result.mean_jct("LIA-2")
    assert result.fraction_over("LIA-2") >= result.fraction_over("XMP-2")
    assert result.fraction_over("XMP-2") < 0.2

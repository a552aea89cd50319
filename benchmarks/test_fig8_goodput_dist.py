"""Bench: Fig. 8 — goodput CDFs and per-category percentile bars."""

from _bench_common import BENCH_BASE, BENCH_CAMPAIGN, base_for, emit

from repro.experiments.catalog import run
from repro.experiments.reporting import format_summary
from repro.metrics.stats import percentile


def render(result) -> str:
    lines = [f"Pattern: {result.pattern}"]
    lines.append("Goodput CDF quantiles (normalized to 1 Gbps):")
    for label, points in result.cdfs.items():
        values = [v for v, _ in points]
        if not values:
            lines.append(f"  {label:<7} (no flows)")
            continue
        qs = "  ".join(
            f"p{q}={percentile(values, q):.3f}" for q in (10, 50, 90)
        )
        lines.append(f"  {label:<7} {qs}  n={len(values)}")
    lines.append("Per-category five-number summaries:")
    for label, by_category in result.by_category.items():
        for category, summary in sorted(by_category.items()):
            lines.append(
                f"  {label:<7} {category:<11} {format_summary(summary)}"
            )
    return "\n".join(lines)


def test_fig8a_permutation_cdf(once):
    result = once(run, "fig8", BENCH_BASE, BENCH_CAMPAIGN)
    emit("fig8a_permutation", render(result))
    # Paper shape: the XMP-4 CDF sits right of DCTCP's (higher goodput).
    assert result.median("XMP-4") > result.median("DCTCP") * 0.95
    assert result.median("XMP-2") > result.median("LIA-2")


def test_fig8b_incast_cdf(once):
    result = once(run, "fig8", base_for("incast"), BENCH_CAMPAIGN)
    emit("fig8b_incast", render(result))
    assert result.median("XMP-2") > result.median("LIA-2")


def test_fig8cd_categories(once):
    result = once(run, "fig8", BENCH_BASE, BENCH_CAMPAIGN)
    by_cat = result.by_category
    # Paper shape (Fig. 8c): DCTCP wins inner-rack; XMP narrows the gap on
    # inter-pod flows via multipath.
    dctcp = by_cat["DCTCP"]
    xmp = by_cat["XMP-2"]
    if "inner-rack" in dctcp and "inner-rack" in xmp:
        assert dctcp["inner-rack"]["p50"] >= 0.5 * xmp["inner-rack"]["p50"]
    if "inter-pod" in dctcp and "inter-pod" in xmp:
        assert xmp["inter-pod"]["p50"] > 0.8 * dctcp["inter-pod"]["p50"]

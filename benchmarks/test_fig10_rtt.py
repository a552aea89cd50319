"""Bench: Fig. 10 — RTT distributions by flow category."""

import pytest

from _bench_common import BENCH_CAMPAIGN, base_for, emit

from repro.experiments.catalog import run


@pytest.mark.parametrize("pattern", ["permutation", "random", "incast"])
def test_fig10_rtt(once, pattern):
    result = once(run, "rtt", base_for(pattern), BENCH_CAMPAIGN)
    emit(f"fig10_rtt_{pattern}", result.format())

    # Paper shapes: XMP and DCTCP hold RTT low (queues near K); LIA's RTT
    # is several times larger (full DropTail buffers); subflow count
    # barely moves XMP's RTT.
    for label in ("DCTCP", "XMP-2", "XMP-4"):
        for category, summary in result.rtt[label].items():
            assert summary["p50"] < 1.5e-3, (label, category)
    lia = result.rtt.get("LIA-4", {})
    xmp = result.rtt.get("XMP-2", {})
    shared = set(lia) & set(xmp)
    assert shared
    for category in shared:
        assert lia[category]["p50"] > 1.5 * xmp[category]["p50"]
    if "XMP-4" in result.rtt:
        for category in set(result.rtt["XMP-4"]) & set(xmp):
            ratio = result.rtt["XMP-4"][category]["p50"] / xmp[category]["p50"]
            assert 0.4 < ratio < 2.5

"""Bench: Fig. 11 — link-utilization distributions by layer."""

import pytest

from _bench_common import BENCH_CAMPAIGN, base_for, emit

from repro.experiments.catalog import run


@pytest.mark.parametrize("pattern", ["permutation", "random", "incast"])
def test_fig11_utilization(once, pattern):
    result = once(run, "utilization", base_for(pattern), BENCH_CAMPAIGN)
    emit(f"fig11_utilization_{pattern}", result.format())

    # Paper shapes: DCTCP's single-path collisions give it the widest
    # utilization spread in the multipath-relevant layers; XMP both
    # tightens the distribution and raises the mean vs single path.
    dctcp_spread = result.spread("DCTCP", "core") + result.spread(
        "DCTCP", "aggregation"
    )
    xmp_spread = result.spread("XMP-2", "core") + result.spread(
        "XMP-2", "aggregation"
    )
    assert xmp_spread < dctcp_spread * 1.25
    assert result.mean_utilization("XMP-2") > result.mean_utilization("DCTCP") * 0.9

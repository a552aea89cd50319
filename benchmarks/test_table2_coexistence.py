"""Bench: Table 2 — XMP coexisting with LIA / TCP / DCTCP."""

from _bench_common import BENCH_BASE, BENCH_CAMPAIGN, emit

from repro.experiments.catalog import run
from repro.experiments.table2_coexistence import PAPER_TABLE2


def test_table2_coexistence(once):
    result = once(run, "table2", BENCH_BASE, BENCH_CAMPAIGN)
    lines = [result.format(), "", "Paper:"]
    for (scheme, queue), (xmp, other) in sorted(PAPER_TABLE2.items()):
        lines.append(f"  XMP : {scheme.upper():<5} q={queue:<4} {xmp} : {other}")
    emit("table2_coexistence", "\n".join(lines))

    for queue in (50, 100):
        xmp_vs_dctcp = result.cells[("dctcp", queue)]
        # XMP and DCTCP share roughly fairly (both ECN-driven).
        ratio = xmp_vs_dctcp[0] / max(xmp_vs_dctcp[1], 1e-9)
        assert 0.5 < ratio < 2.0
        # XMP beats plain TCP.
        xmp_vs_tcp = result.cells[("tcp", queue)]
        assert xmp_vs_tcp[0] > xmp_vs_tcp[1]
        # XMP beats LIA.
        xmp_vs_lia = result.cells[("lia", queue)]
        assert xmp_vs_lia[0] > xmp_vs_lia[1] * 0.95

"""Bench: Table 1 — average goodput per scheme per traffic pattern."""

from _bench_common import BENCH_BASE, BENCH_CAMPAIGN, BENCH_INCAST, emit

from repro.experiments.catalog import run
from repro.experiments.table1_goodput import PAPER_TABLE1


def run_full_table1():
    """Permutation/Random cells at the standard horizon, Incast at the
    longer one (shared, via the result cache, with Figs. 8-11/Table 3)."""
    bulk = run("table1", BENCH_BASE, BENCH_CAMPAIGN,
               patterns=("permutation", "random"))
    incast = run("table1", BENCH_INCAST, BENCH_CAMPAIGN, patterns=("incast",))
    for label, cells in incast.goodput_mbps.items():
        bulk.goodput_mbps[label]["incast"] = cells["incast"]
    bulk.patterns = ("permutation", "random", "incast")
    return bulk


def test_table1_goodput(once):
    result = once(run_full_table1)
    lines = [result.format(), "", "Paper (k=8, 600 GB):"]
    for label, row in PAPER_TABLE1.items():
        lines.append(
            f"  {label:<6} perm={row['permutation']:.1f}  "
            f"rand={row['random']:.1f}  incast={row['incast']:.1f}"
        )
    emit("table1_goodput", "\n".join(lines))

    goodput = result.goodput_mbps
    for pattern in ("permutation", "random", "incast"):
        # Headline orderings of the paper's Table 1.
        assert goodput["XMP-2"][pattern] > goodput["DCTCP"][pattern] * 0.95
        assert goodput["XMP-2"][pattern] > goodput["LIA-2"][pattern]
        assert goodput["XMP-4"][pattern] > goodput["LIA-2"][pattern]
    # LIA gains a lot from extra subflows; XMP needs far fewer.
    assert all(
        goodput["LIA-4"][p] > goodput["LIA-2"][p] for p in goodput["LIA-4"]
    )

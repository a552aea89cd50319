"""Deterministic cost rows: Python calls per packet-hop, by layer.

Wall-clock on a shared host swings 10-25 % between runs of one commit.
The number of Python calls a run makes does not: every event, callback,
property and helper is one call, and the simulator is deterministic, so
a run's call count is the same in every process.  This bench runs the six
golden scenarios and one short ``fabric_bulk``-shaped cell (k=4
permutation, XMP with 2 subflows, 0.05 s) under stdlib ``cProfile``,
folds ``ncalls`` by ``src/repro`` package, and divides each layer by the
run's packet-hops (Σ ``link.packets_transmitted``).  The table goes to
``benchmarks/results/perf_calls.txt``.

Calls are not time: C-level work (allocation, dict lookups, numpy) is
invisible to them, and memory is read with ``tracemalloc`` and peak RSS
instead.  A change that lowers calls but not wall says so.

    PYTHONPATH=src python -m pytest benchmarks/test_perf_calls.py

These are plain tests (no ``benchmark`` fixture), so ``--benchmark-only``
skips them.  ``scripts/check.sh --bench`` runs the repeatability test.
"""

from __future__ import annotations

import cProfile
import pathlib
import pstats
from collections import Counter

import repro
from _bench_common import RESULTS_DIR
from repro.experiments.fattree_eval import FatTreeScenario, _simulate
from repro.sim.probe import Probe, probing
from repro.validate.golden import check_digest
from repro.validate.scenarios import SCENARIOS

PACKAGE = pathlib.Path(repro.__file__).resolve().parent

#: The ``fabric_bulk``-shaped cell.
FABRIC_XMP2 = FatTreeScenario(
    scheme="xmp", subflows=2, pattern="permutation", k=4, duration=0.05, seed=1
)


class LinkCensus(Probe):
    """Keeps every link built while it is active, so a run's packet-hops
    can be summed afterwards.  It never attaches to a simulator: the run
    keeps the bare event loop, so its call counts are the unprobed ones."""

    __slots__ = ("links",)
    kind = "profile"

    def __init__(self) -> None:
        self.links = []

    def attach(self, sim) -> None:
        pass

    def watch_link(self, link) -> None:
        self.links.append(link)


def layer_of(filename: str) -> str:
    """``repro.<package>`` for code under ``src/repro``; ``builtins`` for
    C functions; ``other`` for the stdlib and this harness."""
    if filename == "~":
        return "builtins"
    try:
        module = pathlib.Path(filename).resolve().relative_to(PACKAGE)
    except ValueError:
        return "other"
    return ".".join(("repro",) + module.with_suffix("").parts[:1])


def count_calls(run):
    """``run()`` under cProfile: its value, calls per layer, packet-hops."""
    census = LinkCensus()
    profiler = cProfile.Profile()
    with probing(census):
        profiler.enable()
        try:
            value = run()
        finally:
            profiler.disable()
    calls = Counter()
    for (filename, _, _), (_, ncalls, _, _, _) in pstats.Stats(profiler).stats.items():
        calls[layer_of(filename)] += ncalls
    hops = sum(link.packets_transmitted for link in census.links)
    return value, calls, hops


def fabric_cell():
    return _simulate(FABRIC_XMP2)


def format_run(name, calls, events, hops):
    total = sum(calls.values())
    lines = [
        f"{name}: {total:,} calls, {events:,} events, {hops:,} packet-hops "
        f"= {total / hops:.3f} calls_per_packet_hop",
    ]
    for layer, count in sorted(calls.items(), key=lambda item: (-item[1], item[0])):
        lines.append(f"  {layer:<20} {count:>12,} {count / hops:>10.3f}")
    return "\n".join(lines)


def test_call_counts_repeat_exactly():
    """Two runs of one cell in one process make the same calls, layer by
    layer (after a warm-up run, so imports and first-use caches are paid)."""
    fabric_cell()
    first = count_calls(fabric_cell)
    second = count_calls(fabric_cell)
    assert first[0].events == second[0].events > 0
    assert first[1] == second[1]
    assert first[2] == second[2] > 0


def test_calls_per_packet_hop_table():
    """The golden scenarios and the fabric cell, one block each."""
    fabric_cell()
    blocks = []
    for name, run in SCENARIOS.items():
        digest, calls, hops = count_calls(run)
        assert check_digest(name, digest) == [], name
        blocks.append(format_run(name, calls, digest["events"], hops))
    result, calls, hops = count_calls(fabric_cell)
    blocks.append(
        format_run("fabric-xmp2 (k=4 permutation, XMP-2, 0.05 s)", calls, result.events, hops)
    )
    header = (
        "Python calls per packet-hop by layer (cProfile ncalls folded by\n"
        "src/repro package; columns: calls, calls per packet-hop).\n"
        "Deterministic: equal in every run of one tree.  Regenerate with\n"
        "  PYTHONPATH=src python -m pytest benchmarks/test_perf_calls.py\n"
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "perf_calls.txt").write_text(header + "\n" + "\n\n".join(blocks) + "\n")

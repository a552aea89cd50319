"""Table 2 — XMP coexisting with LIA / TCP / DCTCP (Random pattern).

Half of the hosts run XMP-2, the other half one of {LIA-2, TCP, DCTCP},
at switch queue sizes of 50 and 100 packets.  Paper's numbers (Mbps)::

    Queue size        50 packets      100 packets
    XMP : LIA        463.4 : 314.3   423.2 : 388.3
    XMP : TCP        522.9 : 175.3   501.8 : 243.4
    XMP : DCTCP      485.4 : 485.3   481.4 : 493.5

Shapes to hold: XMP ≈ DCTCP (both ECN-driven); XMP ≫ TCP; XMP > LIA, with
the gap narrowing as the queue grows (deep buffers help loss-based
schemes).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.fattree_eval import FatTreeScenario
from repro.experiments.reporting import format_table
from repro.runner import CampaignResult

#: (coexisting scheme, its subflow count) — the paper's three rows.
COEXIST_SCHEMES: Tuple[Tuple[str, int], ...] = (
    ("lia", 2),
    ("tcp", 1),
    ("dctcp", 1),
)

QUEUE_SIZES: Tuple[int, ...] = (50, 100)

PAPER_TABLE2 = {
    ("lia", 50): (463.4, 314.3),
    ("lia", 100): (423.2, 388.3),
    ("tcp", 50): (522.9, 175.3),
    ("tcp", 100): (501.8, 243.4),
    ("dctcp", 50): (485.4, 485.3),
    ("dctcp", 100): (481.4, 493.5),
}


@dataclass
class Table2Result:
    """(other scheme, queue size) -> (XMP Mbps, other Mbps)."""

    cells: Dict[Tuple[str, int], Tuple[float, float]] = field(default_factory=dict)
    #: Per-cell runner observability (wall/events/cache provenance).
    campaign: Optional[CampaignResult] = None

    def format(self) -> str:
        schemes = []
        queues = []
        for scheme, queue in self.cells:
            if scheme not in schemes:
                schemes.append(scheme)
            if queue not in queues:
                queues.append(queue)
        headers = ["Pairing"] + [f"{q} packets" for q in sorted(queues)]
        rows = []
        for scheme in schemes:
            row = [f"XMP : {scheme.upper()}"]
            for queue in sorted(queues):
                xmp, other = self.cells[(scheme, queue)]
                row.append(f"{xmp:.1f} : {other:.1f}")
            rows.append(row)
        return format_table(
            headers, rows,
            title="Table 2: Average Goodput (Mbps), Random pattern, coexistence",
        )


def cells(
    base: FatTreeScenario,
    schemes: Sequence[Tuple[str, int]] = COEXIST_SCHEMES,
    queue_sizes: Sequence[int] = QUEUE_SIZES,
) -> List[FatTreeScenario]:
    """XMP-2 against every (coexisting scheme, queue size) under Random."""
    return [
        replace(
            base,
            scheme="xmp",
            subflows=2,
            pattern="random",
            queue_capacity=queue,
            coexist_scheme=other_scheme,
            coexist_subflows=other_subflows,
        )
        for other_scheme, other_subflows in schemes
        for queue in queue_sizes
    ]


def view(grid: Sequence[FatTreeScenario], outcome: CampaignResult) -> Table2Result:
    """Collect both sides' mean goodput per coexistence cell."""
    result = Table2Result(campaign=outcome)
    for scenario, run in zip(grid, outcome.values):
        result.cells[(scenario.coexist_scheme, scenario.queue_capacity)] = (
            run.mean_goodput_bps(scenario.label()) / 1e6,
            run.mean_goodput_bps(scenario.coexist_label()) / 1e6,
        )
    return result


__all__ = [
    "COEXIST_SCHEMES",
    "QUEUE_SIZES",
    "PAPER_TABLE2",
    "Table2Result",
    "cells",
    "view",
]

"""Table 1 — average goodput (Mbps) per scheme per traffic pattern.

Paper's numbers (k=8, 600 GB, Mbps)::

                Permutation   Random   Incast
    DCTCP          513.6       440.5    423.7
    LIA-2          400.8       310.0    302.7
    LIA-4          627.3       434.5    425.4
    XMP-2          644.3       497.9    483.7
    XMP-4          735.6       542.9    535.7

The scaled-down reproduction targets the *shape*: XMP-2 > DCTCP and
XMP-2 > LIA-2 everywhere; XMP-4 only modestly above XMP-2 (~10% in the
paper) while LIA-4 gains a lot over LIA-2 (>40%).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.fattree_eval import PATTERNS, FatTreeScenario
from repro.experiments.reporting import format_table
from repro.runner import CampaignResult

#: The paper's Table 1 scheme column, as (scheme, subflow count).
TABLE1_SCHEMES: Tuple[Tuple[str, int], ...] = (
    ("dctcp", 1),
    ("lia", 2),
    ("lia", 4),
    ("xmp", 2),
    ("xmp", 4),
)

#: Paper's Table 1, for EXPERIMENTS.md comparisons (Mbps).
PAPER_TABLE1 = {
    "DCTCP": {"permutation": 513.6, "random": 440.5, "incast": 423.7},
    "LIA-2": {"permutation": 400.8, "random": 310.0, "incast": 302.7},
    "LIA-4": {"permutation": 627.3, "random": 434.5, "incast": 425.4},
    "XMP-2": {"permutation": 644.3, "random": 497.9, "incast": 483.7},
    "XMP-4": {"permutation": 735.6, "random": 542.9, "incast": 535.7},
}


@dataclass
class Table1Result:
    """Mean goodput per (scheme label, pattern), Mbps."""

    goodput_mbps: Dict[str, Dict[str, float]] = field(default_factory=dict)
    patterns: Sequence[str] = PATTERNS
    #: Per-cell runner observability (wall/events/cache provenance).
    campaign: Optional[CampaignResult] = None

    def row(self, label: str) -> List[float]:
        return [self.goodput_mbps[label][p] for p in self.patterns]

    def format(self) -> str:
        headers = ["Scheme"] + [p.capitalize() for p in self.patterns]
        rows = [
            [label] + [f"{value:.1f}" for value in self.row(label)]
            for label in self.goodput_mbps
        ]
        return format_table(headers, rows, title="Table 1: Average Goodput (Mbps)")


def scenarios_for(
    base: FatTreeScenario,
    schemes: Sequence[Tuple[str, int]] = TABLE1_SCHEMES,
    patterns: Sequence[str] = PATTERNS,
) -> List[FatTreeScenario]:
    """The scenario grid shared by Table 1 and Figs. 8/10/11."""
    return [
        replace(base, scheme=scheme, subflows=subflows, pattern=pattern)
        for scheme, subflows in schemes
        for pattern in patterns
    ]


def view(grid: Sequence[FatTreeScenario], outcome: CampaignResult) -> Table1Result:
    """Aggregate mean goodput per (scheme, pattern) cell."""
    patterns = list(dict.fromkeys(scenario.pattern for scenario in grid))
    result = Table1Result(patterns=patterns, campaign=outcome)
    for scenario, run in zip(grid, outcome.values):
        label = scenario.label()
        result.goodput_mbps.setdefault(label, {})[scenario.pattern] = (
            run.mean_goodput_bps(label) / 1e6
        )
    return result


__all__ = [
    "TABLE1_SCHEMES",
    "PAPER_TABLE1",
    "Table1Result",
    "scenarios_for",
    "view",
]

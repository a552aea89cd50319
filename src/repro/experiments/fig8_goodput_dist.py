"""Fig. 8 — goodput distributions.

(a)/(b): CDFs of per-flow goodput (normalized to 1 Gbps) under the
Permutation and Incast patterns for DCTCP / LIA-2 / LIA-4 / XMP-2 / XMP-4.
(c)/(d): per-category (inter-pod / inter-rack / inner-rack) five-number
summaries for DCTCP / LIA-4 / XMP-2 / XMP-4.

Key paper shapes: DCTCP wins inner-rack but collapses across more hops;
XMP's multipath compensates; LIA's inner-rack goodput is ruined by the
200 ms loss-recovery floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.fattree_eval import FatTreeScenario
from repro.experiments.fig10_rtt import CATEGORIES, FIG10_SCHEMES
from repro.experiments.reporting import format_table
from repro.metrics.stats import cdf_points, percentile, summarize
from repro.runner import CampaignResult

LINK_RATE_BPS = 1e9


@dataclass
class Fig8Result:
    """CDFs and per-category summaries for one pattern."""

    pattern: str
    #: label -> [(normalized goodput, cumulative fraction)]
    cdfs: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    #: label -> category -> five-number summary of normalized goodput
    by_category: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)
    #: Per-cell runner observability (wall/events/cache provenance).
    campaign: Optional[CampaignResult] = None

    def median(self, label: str) -> float:
        points = self.cdfs[label]
        if not points:
            return 0.0
        return percentile([value for value, _ in points], 50)

    def format(self) -> str:
        headers = ["Scheme", "median"] + [f"{c} p50" for c in CATEGORIES]
        rows = []
        for label in self.cdfs:
            row = [label, f"{self.median(label):.3f}"]
            for category in CATEGORIES:
                summary = self.by_category.get(label, {}).get(category)
                row.append(f"{summary['p50']:.3f}" if summary else "-")
            rows.append(row)
        return format_table(
            headers, rows,
            title=f"Fig. 8 ({self.pattern}): goodput normalized to 1 Gbps",
        )


def view(grid: Sequence[FatTreeScenario], outcome: CampaignResult) -> Fig8Result:
    """Fig. 8's distributions for the grid's one traffic pattern."""
    result = Fig8Result(pattern=grid[0].pattern, campaign=outcome)
    for scenario, run in zip(grid, outcome.values):
        label = scenario.label()
        records = run.all_records(label)
        normalized = [
            record.goodput_bps(run.duration) / LINK_RATE_BPS for record in records
        ]
        result.cdfs[label] = cdf_points(normalized) if normalized else []
        # Panels (c)/(d) show the four schemes Fig. 10 plots.
        if (scenario.scheme, scenario.subflows) in FIG10_SCHEMES:
            grouped: Dict[str, List[float]] = {}
            for record, goodput in zip(records, normalized):
                grouped.setdefault(record.category, []).append(goodput)
            result.by_category[label] = {
                category: summarize(values) for category, values in grouped.items()
            }
    return result


__all__ = ["Fig8Result", "view", "LINK_RATE_BPS"]

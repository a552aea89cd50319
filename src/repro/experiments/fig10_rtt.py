"""Fig. 10 — RTT distributions by flow category.

RTT (of the large flows' subflows, sampled as smoothed RTT while they
run) is the paper's proxy for link buffer occupancy: "packet queuing
delay predominates RTT in DCNs".  The shapes to hold, per pattern:

* XMP and DCTCP keep RTTs low (marking keeps queues near K);
* the subflow count barely affects XMP's RTT;
* LIA's RTTs are several times larger (it fills DropTail queues).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.fattree_eval import FatTreeScenario
from repro.experiments.reporting import format_table
from repro.metrics.stats import summarize
from repro.runner import CampaignResult

#: Schemes Fig. 10 plots.
FIG10_SCHEMES: Tuple[Tuple[str, int], ...] = (
    ("dctcp", 1),
    ("lia", 4),
    ("xmp", 2),
    ("xmp", 4),
)

CATEGORIES = ("inter-pod", "inter-rack", "inner-rack")


@dataclass
class Fig10Result:
    """label -> category -> five-number RTT summary (seconds)."""

    pattern: str
    rtt: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)
    #: Per-cell runner observability (wall/events/cache provenance).
    campaign: Optional[CampaignResult] = None

    def format(self) -> str:
        headers = ["Scheme"] + [f"{c} p50 (ms)" for c in CATEGORIES]
        rows = []
        for label, by_category in self.rtt.items():
            row = [label]
            for category in CATEGORIES:
                summary = by_category.get(category)
                row.append(f"{summary['p50'] * 1e3:.2f}" if summary else "-")
            rows.append(row)
        return format_table(
            headers, rows, title=f"Fig. 10 ({self.pattern}): RTT by category"
        )


def view(grid: Sequence[FatTreeScenario], outcome: CampaignResult) -> Fig10Result:
    """Per-category RTT distributions for the grid's one pattern."""
    result = Fig10Result(pattern=grid[0].pattern, campaign=outcome)
    for scenario, run in zip(grid, outcome.values):
        label = scenario.label()
        result.rtt[label] = {
            category: summarize(samples)
            for category, samples in run.rtt_samples.items()
            if samples
        }
    return result


__all__ = ["Fig10Result", "view", "FIG10_SCHEMES", "CATEGORIES"]

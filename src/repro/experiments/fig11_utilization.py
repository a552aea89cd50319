"""Fig. 11 — link-utilization distributions by layer.

Utilization of a link is bytes carried over capacity x time, grouped by
layer (core / aggregation / rack).  Shapes to hold, per pattern:

* DCTCP's distribution is wide ("fails to achieve a balanced link
  utilization" — single-path flows collide on some links and leave others
  idle);
* XMP/LIA distributions are tighter and higher in the mean; XMP ~10%
  above LIA on average.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.experiments.fattree_eval import FatTreeScenario
from repro.experiments.reporting import format_table
from repro.metrics.stats import mean, summarize
from repro.runner import CampaignResult

LAYERS = ("core", "aggregation", "rack")


@dataclass
class Fig11Result:
    """label -> layer -> five-number utilization summary."""

    pattern: str
    utilization: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)
    #: Per-cell runner observability (wall/events/cache provenance).
    campaign: Optional[CampaignResult] = None

    def spread(self, label: str, layer: str) -> float:
        """max - min utilization: the paper's 'length of the vertical line'."""
        summary = self.utilization[label][layer]
        return summary["max"] - summary["min"]

    def mean_utilization(self, label: str) -> float:
        """Mean of layer means (a scalar for XMP-vs-LIA comparisons)."""
        return mean(
            [self.utilization[label][layer]["mean"] for layer in LAYERS]
        )

    def format(self) -> str:
        headers = ["Scheme"] + [f"{layer} mean/max-min" for layer in LAYERS]
        rows = []
        for label, layers in self.utilization.items():
            row = [label]
            for layer in LAYERS:
                summary = layers[layer]
                row.append(
                    f"{summary['mean']:.2f}/{summary['max'] - summary['min']:.2f}"
                )
            rows.append(row)
        return format_table(
            headers, rows,
            title=f"Fig. 11 ({self.pattern}): link utilization by layer",
        )


def view(grid: Sequence[FatTreeScenario], outcome: CampaignResult) -> Fig11Result:
    """Per-layer utilization distributions for the grid's one pattern."""
    result = Fig11Result(pattern=grid[0].pattern, campaign=outcome)
    for scenario, run in zip(grid, outcome.values):
        label = scenario.label()
        result.utilization[label] = {
            layer: summarize(run.utilization_values(layer)) for layer in LAYERS
        }
    return result


__all__ = ["Fig11Result", "view", "LAYERS"]

"""Fig. 9 / Table 3 — incast job completion times.

Large (background) flows run the scheme under test; the incast jobs'
small flows are plain TCP.  The paper's CDF shows two jumps ~200 ms apart
(RTOmin collapses); DCTCP gives the shortest JCTs, XMP roughly doubles
DCTCP's median (it saturates every path), and LIA is far worse, with over
a tenth of jobs missing 300 ms.

Paper's Table 3::

               DCTCP  LIA-2  LIA-4  XMP-2  XMP-4
    mean JCT    52ms  156ms  180ms   93ms  109ms
    > 300 ms    0.1%  10.1%  12.5%   0.1%   0.2%
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.fattree_eval import FatTreeScenario
from repro.experiments.reporting import format_cdf, format_table
from repro.metrics.stats import cdf_points, mean
from repro.runner import CampaignResult

PAPER_TABLE3 = {
    "DCTCP": (0.052, 0.001),
    "LIA-2": (0.156, 0.101),
    "LIA-4": (0.180, 0.125),
    "XMP-2": (0.093, 0.001),
    "XMP-4": (0.109, 0.002),
}

DEADLINE = 0.300


@dataclass
class JctResult:
    """Per-scheme JCT samples and their derived statistics."""

    jcts: Dict[str, List[float]] = field(default_factory=dict)
    jobs_started: Dict[str, int] = field(default_factory=dict)
    #: Ages of jobs still running when the simulation ended, per scheme.
    unfinished_ages: Dict[str, List[float]] = field(default_factory=dict)
    #: Per-cell runner observability (wall/events/cache provenance).
    campaign: Optional[CampaignResult] = None

    def cdf(self, label: str):
        return cdf_points(self.jcts[label])

    def mean_jct(self, label: str) -> float:
        return mean(self.jcts[label])

    def fraction_over(self, label: str) -> float:
        """Fraction of jobs missing the :data:`DEADLINE`.

        A completed job misses if its JCT exceeds the deadline; a job still
        running at the end of the simulation misses only if it has already
        been running longer than the deadline (jobs merely truncated by the
        finite horizon are excluded from the denominator — counting them
        would charge the scheme for the experiment ending).
        """
        finished = self.jcts.get(label, [])
        ages = self.unfinished_ages.get(label, [])
        overdue_unfinished = sum(1 for age in ages if age > DEADLINE)
        denominator = len(finished) + overdue_unfinished
        if denominator == 0:
            return 0.0
        misses = sum(1 for jct in finished if jct > DEADLINE) + overdue_unfinished
        return misses / denominator

    def format_table3(self) -> str:
        headers = ["Scheme", "Mean JCT (ms)", f"> {DEADLINE*1e3:.0f} ms"]
        rows = []
        for label in self.jcts:
            rows.append(
                [
                    label,
                    f"{self.mean_jct(label) * 1e3:.1f}",
                    f"{self.fraction_over(label) * 100:.1f}%",
                ]
            )
        return format_table(headers, rows, title="Table 3: Job Completion Time")

    def format(self) -> str:
        """Table 3 followed by Fig. 9's CDF quantiles, one line per scheme."""
        lines = [self.format_table3(), "", "CDFs:"]
        for label, jcts in self.jcts.items():
            lines.append(f"  {label:<7} {format_cdf(jcts, scale=1e3, unit='ms')}")
        return "\n".join(lines)


def view(grid: Sequence[FatTreeScenario], outcome: CampaignResult) -> JctResult:
    """Collect every scheme's JCTs from its Incast cell."""
    result = JctResult(campaign=outcome)
    for scenario, run in zip(grid, outcome.values):
        label = scenario.label()
        result.jcts[label] = list(run.jcts)
        result.jobs_started[label] = run.jobs_started
        result.unfinished_ages[label] = list(run.jct_unfinished_ages)
    return result


__all__ = ["JctResult", "view", "PAPER_TABLE3", "DEADLINE"]

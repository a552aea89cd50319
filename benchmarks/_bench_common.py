"""Shared scenario base and output helper for the benchmark harness.

(Separate from conftest.py so benches import it under a stable name.)
"""

from __future__ import annotations

import dataclasses
import os
import pathlib

from repro.experiments.fattree_eval import FatTreeScenario
from repro.runner import Campaign

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Worker processes for grid benches (``REPRO_BENCH_JOBS=N``); results
#: are bit-identical to serial, only wall-clock changes.
BENCH_JOBS = max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1")))

#: The campaign every grid bench runs on (process-wide cache, so benches
#: sharing a scenario grid pay for each cell once per session).
BENCH_CAMPAIGN = Campaign(jobs=BENCH_JOBS)

#: The shared fat-tree evaluation grid (k=4; paper link parameters; scaled
#: flow sizes; 0.5 s of simulated time per cell).
BENCH_BASE = FatTreeScenario(duration=0.5, seed=1)

#: Incast cells run longer so enough jobs complete for stable JCT
#: statistics (a job that trips one 200 ms RTO already eats 40% of the
#: short horizon).
BENCH_INCAST = dataclasses.replace(BENCH_BASE, duration=1.5)


def base_for(pattern: str) -> FatTreeScenario:
    """The bench scenario base for a traffic pattern, set to that pattern."""
    base = BENCH_INCAST if pattern == "incast" else BENCH_BASE
    return dataclasses.replace(base, pattern=pattern)


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

"""Measurement: the quantities the paper's evaluation section reports.

* :mod:`repro.metrics.stats` — percentiles, CDFs, summary statistics.
* :mod:`repro.metrics.fairness` — Jain's fairness index.
* :mod:`repro.metrics.series` — :class:`TimeSeries`, the one shape every
  sampled quantity (packet samplers and fluid trajectories alike) is
  recorded, reduced and cached in.
* :mod:`repro.metrics.collector` — periodic samplers (per-flow rates,
  queue occupancy, RTTs) driven by simulator events.
* :mod:`repro.metrics.goodput` — flow records and the per-scheme goodput
  table (Tables 1/2).
* :mod:`repro.metrics.fct` — FCT-by-size-bin, 99p queue depth and
  incast goodput-collapse reducers for the workload matrix.
"""

from repro.metrics.stats import cdf_points, mean, percentile, summarize
from repro.metrics.fairness import jain_index
from repro.metrics.series import TimeSeries
from repro.metrics.collector import QueueMonitor, RateSampler, RttSampler
from repro.metrics.goodput import FlowRecord, goodput_table
from repro.metrics.fct import (
    check_fct_invariants,
    fct_by_size_bin,
    fct_summary,
    goodput_collapse_ratio,
    queue_depth_p99,
)

__all__ = [
    "check_fct_invariants",
    "fct_by_size_bin",
    "fct_summary",
    "goodput_collapse_ratio",
    "queue_depth_p99",
    "cdf_points",
    "mean",
    "percentile",
    "summarize",
    "jain_index",
    "QueueMonitor",
    "RateSampler",
    "RttSampler",
    "TimeSeries",
    "FlowRecord",
    "goodput_table",
]

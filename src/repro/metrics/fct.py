"""FCT, queue-depth and incast-collapse reducers for the workload matrix.

Flow completion time (FCT) is *the* short-flow metric of the DCN
literature; the reducers here turn a run's
:class:`~repro.metrics.goodput.FlowRecord` lists and queue-occupancy
samples into the tables the workload experiments print:

* :func:`fct_by_size_bin` — count / mean / p50 / p99 FCT per flow-size
  bin (mice / medium / elephant by default), because aggregate means
  hide exactly the short-flow tail the schemes differ on;
* :func:`queue_depth_p99` — the 99th-percentile sampled queue
  occupancy, the standing-queue metric DCTCP-style schemes optimize;
* :func:`goodput_collapse_ratio` — achieved vs ideal fan-in goodput
  for partition-aggregate rounds (1.0 = no collapse);
* :func:`check_fct_invariants` — every recorded FCT must be positive
  and fit inside the simulation horizon; violations raise rather than
  silently skewing percentiles.

Percentiles delegate to :func:`repro.metrics.stats.percentile`, whose
interpolation method is locked (see its docstring) so the numbers in
EXPERIMENTS.md are reproducible to the digit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.goodput import FlowRecord
from repro.metrics.stats import mean, percentile
from repro.sim.units import BitsPerSecond, Seconds

#: Default size-bin upper edges in bytes (inclusive), smallest first.
#: (0, 100 KB] mice — the partition-aggregate RPC regime;
#: (100 KB, 10 MB] medium; (10 MB, inf) elephants.
DEFAULT_BIN_EDGES: Tuple[int, ...] = (100_000, 10_000_000)

#: Labels for ``len(edges) + 1`` bins.
DEFAULT_BIN_LABELS: Tuple[str, ...] = ("mice", "medium", "elephant")


def size_bin_label(
    size_bytes: int,
    edges: Sequence[int] = DEFAULT_BIN_EDGES,
    labels: Sequence[str] = DEFAULT_BIN_LABELS,
) -> str:
    """The bin a flow of ``size_bytes`` falls into."""
    if len(labels) != len(edges) + 1:
        raise ValueError(
            f"{len(edges)} edges need {len(edges) + 1} labels, got {len(labels)}"
        )
    for edge, label in zip(edges, labels):
        if size_bytes <= edge:
            return label
    return labels[-1]


def completion_times(records: Sequence[FlowRecord]) -> List[float]:
    """FCTs of the finished records, in record order."""
    return [
        record.complete_time - record.start_time
        for record in records
        if record.complete_time is not None
    ]


def duration_summary(values: Sequence[float]) -> Dict[str, float]:
    """count/mean/p50/p99 of duration samples in seconds (FCTs, JCTs).

    Empty input gives all zeros, so tables keep a fixed shape.
    """
    if not values:
        return {"count": 0.0, "mean_s": 0.0, "p50_s": 0.0, "p99_s": 0.0}
    return {
        "count": float(len(values)),
        "mean_s": mean(values),
        "p50_s": percentile(values, 50),
        "p99_s": percentile(values, 99),
    }


def fct_by_size_bin(
    records: Sequence[FlowRecord],
    edges: Sequence[int] = DEFAULT_BIN_EDGES,
    labels: Sequence[str] = DEFAULT_BIN_LABELS,
) -> Dict[str, Dict[str, float]]:
    """Per-bin FCT statistics over the *finished* records.

    Every label appears in the result even when its bin is empty
    (count 0, statistics 0.0) so downstream tables keep a fixed shape
    across cells — an empty mice bin at load 0.1 must not reshape the
    load-0.9 table it is printed next to.
    """
    binned: Dict[str, List[float]] = {label: [] for label in labels}
    for record in records:
        if record.complete_time is None:
            continue
        label = size_bin_label(record.size_bytes, edges, labels)
        binned[label].append(record.complete_time - record.start_time)
    return {label: duration_summary(binned[label]) for label in labels}


def queue_depth_p99(samples: Sequence[int]) -> float:
    """99th-percentile sampled queue occupancy (packets); 0.0 if empty."""
    if not samples:
        return 0.0
    return percentile([float(s) for s in samples], 99)


def goodput_collapse_ratio(
    jcts: Sequence[float],
    fan_in: int,
    response_bytes: int,
    access_rate_bps: BitsPerSecond,
) -> float:
    """Mean achieved/ideal goodput across fan-in rounds, in (0, 1].

    The ideal round time is the aggregator's access link serializing
    ``fan_in * response_bytes`` back to back; a round's achieved
    goodput is that payload over its actual JCT.  RTO-dominated rounds
    (the incast collapse) drag the ratio toward 0.
    """
    if fan_in < 1 or response_bytes < 1 or access_rate_bps <= 0:
        raise ValueError("fan_in, response_bytes and access rate must be positive")
    if not jcts:
        return 0.0
    ideal_s = fan_in * response_bytes * 8.0 / access_rate_bps
    ratios = [min(1.0, ideal_s / jct) for jct in jcts if jct > 0]
    if not ratios:
        return 0.0
    return mean(ratios)


def check_fct_invariants(
    records: Sequence[FlowRecord],
    duration: Seconds,
    context: str = "",
) -> int:
    """Every finished record's FCT must be positive and <= ``duration``.

    Returns the number of records checked; raises ``ValueError`` on the
    first violation.  Drivers run this before reducing, so a broken
    completion callback fails loudly instead of leaking an impossible
    FCT into a percentile.
    """
    checked = 0
    where = f" in {context}" if context else ""
    for record in records:
        if record.complete_time is None:
            continue
        fct = record.complete_time - record.start_time
        if fct <= 0.0:
            raise ValueError(
                f"non-positive FCT {fct!r} for flow {record.flow_id}{where}"
            )
        if fct > duration:
            raise ValueError(
                f"FCT {fct!r} exceeds simulation horizon {duration!r} "
                f"for flow {record.flow_id}{where}"
            )
        checked += 1
    return checked


def fct_summary(
    records: Sequence[FlowRecord], duration: Optional[Seconds] = None
) -> Dict[str, float]:
    """Overall finished-flow FCT summary (count/mean/p50/p99).

    When ``duration`` is given the records are invariant-checked first.
    """
    if duration is not None:
        check_fct_invariants(records, duration)
    return duration_summary(completion_times(records))


__all__ = [
    "DEFAULT_BIN_EDGES",
    "DEFAULT_BIN_LABELS",
    "size_bin_label",
    "completion_times",
    "duration_summary",
    "fct_by_size_bin",
    "queue_depth_p99",
    "goodput_collapse_ratio",
    "check_fct_invariants",
    "fct_summary",
]

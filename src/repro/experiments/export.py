"""Serialize experiment results to JSON/CSV artifact directories.

``pytest benchmarks/`` prints and stores human-readable tables; this
module produces the *machine-readable* counterparts so results can be
plotted or diffed outside the repo:

* :func:`export_fattree_result` — one fat-tree run: per-flow records,
  JCTs, RTT samples and per-link utilization as CSV plus a summary JSON.
* :func:`export_campaign_metrics` — a campaign's per-cell runner metrics
  (wall-clock, events, events/sec, cache provenance) as ``cells.csv``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import pathlib
from typing import Union

from repro.experiments.fattree_eval import FatTreeResult

PathLike = Union[str, pathlib.Path]


def _ensure_dir(path: PathLike) -> pathlib.Path:
    directory = pathlib.Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def export_fattree_result(result: FatTreeResult, directory: PathLike) -> pathlib.Path:
    """Write one fat-tree run's raw data into ``directory``.

    Files produced: ``summary.json``, ``flows.csv``, ``jct.csv``,
    ``rtt_samples.csv``, ``links.csv``.
    """
    out = _ensure_dir(directory)

    summary = {
        "scenario": dataclasses.asdict(result.scenario),
        "duration": result.duration,
        "mean_goodput_bps": result.mean_goodput_bps(),
        "jobs_started": result.jobs_started,
        "jobs_completed": len(result.jcts),
        "total_marked": result.total_marked,
        "total_dropped": result.total_dropped,
        "events": result.events,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2))

    with open(out / "flows.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["scheme", "src", "dst", "category", "size_bytes",
             "start_time", "complete_time", "delivered_bytes", "goodput_bps"]
        )
        for label in result.records:
            for record in result.records[label] + result.unfinished.get(label, []):
                writer.writerow(
                    [
                        record.scheme,
                        record.src,
                        record.dst,
                        record.category,
                        record.size_bytes,
                        record.start_time,
                        record.complete_time if record.complete_time is not None else "",
                        record.delivered_bytes,
                        record.goodput_bps(result.duration),
                    ]
                )

    with open(out / "jct.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["jct_seconds"])
        for jct in result.jcts:
            writer.writerow([jct])

    with open(out / "rtt_samples.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["category", "srtt_seconds"])
        for category, samples in result.rtt_samples.items():
            for sample in samples:
                writer.writerow([category, sample])

    with open(out / "links.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["link", "layer", "utilization"])
        for name, layer, utilization in result.link_utilization:
            writer.writerow([name, layer, utilization])

    return out


def export_campaign_metrics(campaign, directory: PathLike) -> pathlib.Path:
    """Write a campaign's per-cell metrics as ``<directory>/cells.csv``.

    ``campaign`` is a :class:`repro.runner.CampaignResult` (or anything
    iterable over :class:`repro.runner.RunResult`).
    """
    out = _ensure_dir(directory)
    with open(out / "cells.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["cell", "source", "wall_seconds", "events", "events_per_sec"])
        for result in campaign:
            metrics = result.metrics
            writer.writerow(
                [
                    result.spec.label(),
                    metrics.source,
                    metrics.wall_time_s,
                    metrics.events,
                    metrics.events_per_sec,
                ]
            )
    return out


__all__ = ["export_fattree_result", "export_campaign_metrics"]

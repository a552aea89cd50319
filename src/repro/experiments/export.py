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
from typing import Iterable, Union

from repro.experiments.fattree_eval import FatTreeResult

PathLike = Union[str, pathlib.Path]


def _ensure_dir(path: PathLike) -> pathlib.Path:
    directory = pathlib.Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _write_csv(path: pathlib.Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


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

    _write_csv(out / "flows.csv", (
        "scheme", "src", "dst", "category", "size_bytes",
        "start_time", "complete_time", "delivered_bytes", "goodput_bps",
    ), (
        (r.scheme, r.src, r.dst, r.category, r.size_bytes, r.start_time,
         "" if r.complete_time is None else r.complete_time, r.delivered_bytes,
         r.goodput_bps(result.duration))
        for label in result.records
        for r in result.records[label] + result.unfinished.get(label, [])
    ))
    _write_csv(out / "jct.csv", ("jct_seconds",), ((jct,) for jct in result.jcts))
    _write_csv(out / "rtt_samples.csv", ("category", "srtt_seconds"), (
        (category, sample)
        for category, samples in result.rtt_samples.items()
        for sample in samples
    ))
    _write_csv(out / "links.csv", ("link", "layer", "utilization"), result.link_utilization)
    return out


def export_campaign_metrics(campaign, directory: PathLike) -> pathlib.Path:
    """Write a campaign's per-cell metrics as ``<directory>/cells.csv``.

    ``campaign`` is a :class:`repro.runner.CampaignResult` (or anything
    iterable over :class:`repro.runner.RunResult`).
    """
    out = _ensure_dir(directory)
    _write_csv(out / "cells.csv", ("cell", "source", "wall_seconds", "events", "events_per_sec"), (
        (r.spec.label(), r.metrics.source, r.metrics.wall_time_s, r.metrics.events,
         r.metrics.events_per_sec)
        for r in campaign
    ))
    return out


__all__ = ["export_fattree_result", "export_campaign_metrics"]

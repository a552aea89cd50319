"""One repetition of one ledger workload, in a process of its own.

``run.py`` spawns this shim once per repetition so that every sample
starts from a cold interpreter: imports, spec construction and opening
the cache directory are *set-up* (``setup_s``), everything from the
first ``Campaign.run`` / ``repro.cli.main`` instruction to the rendered
report is the *measured call* (``wall_s``/``cpu_s``).  The shim prints a
single JSON object on its last stdout line and nothing else.

Modes (``--mode``):

``rep``     the untraced measured call: end-to-end numbers, per-cell
            digests of the public result fields, invariant checks (on a
            cache directory a previous ``rep`` filled, this is the warm run);
``spawn``   set-up only, then exit (extra ``setup_s`` samples);
``traced``  the campaign steps performed by hand under ``REPRO_PROFILE=1``
            with a span around each public call, the engine profile
            folded into layers, and the fixed-input layer drivers.

Only public ``repro`` entry points are used (listed in README.md): the
ledger measures layers from outside; spans inside the program are a
later issue.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import sys
import time
import traceback

#: Every link of the paper's fat tree runs at 1 Gbps; no flow's goodput
#: may exceed its host's access link.
LINE_RATE_BPS = 1e9

#: The CLI workload's cells, in Table 1 row order.
TABLE1_CELLS = ("dctcp", "lia2", "lia4", "xmp2", "xmp4")

#: Workload -> its cells, in campaign order.  Cell names are the suffixes
#: of the per-cell metrics in BENCHMARK.json.
CELLS = {
    "fabric_bulk": ("xmp2", "xmp4", "dctcp"),
    "mice_churn": ("ws_xmp2", "ws_dctcp", "pa_xmp2"),
    "fluid_scale": ("k16_vec", "k4_ref", "k4_vec"),
    "table1_cli_jobs2": TABLE1_CELLS,
}
WORKLOADS = tuple(CELLS)


def cell_name(label: str) -> str:
    """``XMP-2`` -> ``xmp2``: scheme labels as metric-name suffixes."""
    return label.lower().replace("-", "")


# ----------------------------------------------------------------------
# Workload definitions: the generated inputs the program sees.
# ----------------------------------------------------------------------


def build_specs(workload: str, seed: int, scale: float):
    """``[(cell, RunSpec)]`` for a campaign workload at ``seed``.

    ``scale`` multiplies every cell's simulated duration (1.0 for real
    runs, 0.05 for ``--selftest``).  Imports live here so that they are
    charged to ``setup_s``.
    """
    from repro.runner import RunSpec

    if workload == "fabric_bulk":
        from repro.experiments.fattree_eval import FatTreeScenario

        configs = [
            FatTreeScenario(scheme=scheme, subflows=subflows, pattern="permutation",
                            k=4, duration=0.2 * scale, seed=seed)
            for scheme, subflows in (("xmp", 2), ("xmp", 4), ("dctcp", 1))
        ]
        kinds = ["fattree"] * 3
    elif workload == "mice_churn":
        from repro.experiments.workload_matrix import (
            IncastSweepScenario,
            WorkloadScenario,
        )

        configs = [
            WorkloadScenario(scheme=scheme, subflows=subflows, workload="websearch",
                             arrival="poisson", load=0.6, size_scale=0.02,
                             duration=0.1 * scale, seed=seed)
            for scheme, subflows in (("xmp", 2), ("dctcp", 1))
        ]
        configs.append(
            IncastSweepScenario(scheme="xmp", subflows=2, fan_in=8,
                                duration=0.3 * scale, seed=seed)
        )
        kinds = ["workload", "workload", "incast_sweep"]
    elif workload == "fluid_scale":
        from repro.fluid.backend import FluidScenario

        configs = [
            FluidScenario(scheme="xmp", topology="fattree", flows=flows, subflows=2,
                          duration=duration * scale, k=k, solver=solver, seed=seed)
            for k, flows, duration, solver in (
                (16, 10_240, 0.01, "vector"),
                (4, 64, 0.2, "reference"),
                (4, 64, 0.2, "vector"),
            )
        ]
        kinds = ["fluid"] * 3
    else:
        raise ValueError(f"no campaign specs for workload {workload!r}")
    return [
        (cell, RunSpec(kind, config))
        for cell, kind, config in zip(CELLS[workload], kinds, configs)
    ]


def table1_argv(seed: int, scale: float, cache_dir: str, extra=()):
    return [
        "table1",
        "--patterns", "permutation",
        "--duration", repr(0.15 * scale),
        "--seed", str(seed),
        "--jobs", "2",
        "--cache-dir", cache_dir,
        *extra,
    ]


# ----------------------------------------------------------------------
# Public result fields: digest, invariants, reductions.
# ----------------------------------------------------------------------


class InvariantBroken(Exception):
    """A result violates something no correct run can produce."""


def _flow_rows(records, horizon):
    """``[size, start, complete, delivered]`` per record, invariant-checked."""
    from repro.net.packet import MSS_BYTES

    rows = []
    for record in records:
        # Delivery is counted in whole segments, so the last one may
        # overshoot the requested size by less than one MSS.
        if record.delivered_bytes >= record.size_bytes + MSS_BYTES:
            raise InvariantBroken(f"delivered > size: {record!r}")
        if record.complete_time is not None and record.complete_time < record.start_time:
            raise InvariantBroken(f"complete < start: {record!r}")
        if record.goodput_bps(horizon) > LINE_RATE_BPS:
            raise InvariantBroken(f"goodput above line rate: {record!r}")
        rows.append(
            [
                record.size_bytes,
                record.start_time,
                record.complete_time,
                record.delivered_bytes,
            ]
        )
    return rows


def public_fields(kind: str, value) -> dict:
    """The user-visible content of one result, checked against invariants.

    This is what the digest covers: a change that alters any of it —
    including the event count — changed the simulation, not just its
    speed.
    """
    if kind == "fluid":
        goodputs = value.flow_goodputs_bps()
        # The fluid queues are soft, so a flow may transiently read a
        # hair above capacity; 1 % is far below any real violation.
        if max(goodputs) > LINE_RATE_BPS * 1.01:
            raise InvariantBroken(f"fluid goodput {max(goodputs)!r} above line rate")
        return {
            "events": value.events,
            "goodputs": [float(f"{g:.9g}") for g in goodputs],
        }
    fields = {
        "events": value.events,
        "marks": value.total_marked,
        "drops": value.total_dropped,
    }
    horizon = value.duration
    if kind == "fattree":
        fields["flows"] = {
            label: _flow_rows(value.all_records(label), horizon)
            for label in sorted(value.records)
        }
    elif kind == "workload":
        fields["flows"] = _flow_rows(list(value.records) + list(value.unfinished), horizon)
    elif kind == "incast_sweep":
        fields["flows"] = _flow_rows(value.responses, horizon)
        fields["jcts"] = list(value.jcts)
    else:
        raise ValueError(f"no public-field view for kind {kind!r}")
    return fields


def digest_of(fields) -> str:
    payload = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def reduce_cell(kind: str, value) -> dict:
    """The table/figure reductions a user of this cell would compute."""
    from repro.metrics import fct_by_size_bin, fct_summary, goodput_table, queue_depth_p99
    from repro.metrics import goodput_collapse_ratio, summarize

    if kind == "fattree":
        table = goodput_table(
            {label: value.all_records(label) for label in value.records},
            now=value.duration,
        )
        return {
            "goodput_mbps": sum(table.values()) / len(table) / 1e6,
            "utilization": {
                layer: summarize(value.utilization_values(layer))
                for layer in ("core", "aggregation", "rack")
            },
        }
    if kind == "workload":
        overall = fct_summary(value.records, value.duration)
        return {
            "goodput_mbps": _mean_goodput_mbps(value.records, value.unfinished, value.duration),
            "flows_done": int(overall["count"]),
            "fct_p99_ms": overall["p99_s"] * 1e3,
            "fct_by_bin": fct_by_size_bin(value.records),
            "queue_p99": {
                layer: queue_depth_p99(samples)
                for layer, samples in sorted(value.queue_samples.items())
            },
        }
    if kind == "incast_sweep":
        overall = fct_summary(value.responses, value.duration)
        scenario = value.scenario
        return {
            "goodput_mbps": _mean_goodput_mbps(value.responses, (), value.duration),
            "flows_done": int(overall["count"]),
            "fct_p99_ms": overall["p99_s"] * 1e3,
            "collapse_ratio": goodput_collapse_ratio(
                value.jcts, scenario.fan_in, scenario.response_bytes, value.access_rate_bps
            ),
            "queue_p99": {
                layer: queue_depth_p99(samples)
                for layer, samples in sorted(value.queue_samples.items())
            },
        }
    if kind == "fluid":
        return {
            "goodput_mbps": value.mean_goodput_bps() / 1e6,
            "max_queue": value.max_steady_state_queue(),
        }
    raise ValueError(f"no reduction for kind {kind!r}")


def _mean_goodput_mbps(finished, unfinished, horizon) -> float:
    records = list(finished) + list(unfinished)
    if not records:
        return 0.0
    return sum(r.goodput_bps(horizon) for r in records) / len(records) / 1e6


def check_cell(kind: str, value, summary: dict) -> dict:
    """Digest of one cell's public fields; ``error`` set when it fails."""
    try:
        fields = public_fields(kind, value)
    except InvariantBroken as exc:
        return {"error": f"invariant: {exc}"}
    return {
        "digest": digest_of(fields),
        "events": fields["events"],
        "marks": fields.get("marks", 0),
        "drops": fields.get("drops", 0),
        "summary": summary,
    }


TABLE_ROW = re.compile(r"^([A-Z]+(?:-\d+)?)\s+(\S+)\s*$")
#: Absent only on a warm cache ("all served from cache"): nothing simulated.
SIMULATED = re.compile(r"simulated in ([\d.]+) cell-seconds \(([\d,]+) events")


def parse_table1(text: str, cold: bool) -> dict:
    """The CLI's Table 1 as cells, checked: every row present and numeric.

    A ``cold`` run simulated every cell, so its ``[runner]`` line must say
    how much: a line the pattern no longer matches is a broken run, not
    zero events.
    """
    rows = {}
    for line in text.splitlines():
        match = TABLE_ROW.match(line)
        if match and cell_name(match.group(1)) in TABLE1_CELLS:
            try:
                rows[cell_name(match.group(1))] = float(match.group(2))
            except ValueError:
                raise InvariantBroken(f"non-numeric table row: {line!r}") from None
    missing = [cell for cell in TABLE1_CELLS if cell not in rows]
    if missing:
        raise InvariantBroken(f"table rows missing: {missing}")
    for cell, mbps in rows.items():
        if not 0.0 < mbps <= LINE_RATE_BPS / 1e6:
            raise InvariantBroken(f"goodput out of range: {cell}={mbps}")
    if "[runner]" not in text:
        raise InvariantBroken("no [runner] summary line")
    simulated = SIMULATED.search(text)
    if cold and simulated is None:
        raise InvariantBroken("cold run, but no 'simulated in ... events' on the [runner] line")
    return {
        "rows": rows,
        "cell_seconds": float(simulated.group(1)) if simulated else 0.0,
        "events": int(simulated.group(2).replace(",", "")) if simulated else 0,
    }


def table_cells(table: dict) -> dict:
    """Per-cell check records for a parsed Table 1.

    One digest for the whole table; each row fails or passes with it.
    The event count stays out: a warm-cache run prints none.
    """
    digest = digest_of(table["rows"])
    return {
        cell: {"digest": digest, "summary": {"goodput_mbps": mbps}}
        for cell, mbps in table["rows"].items()
    }


# ----------------------------------------------------------------------
# The measured call.
# ----------------------------------------------------------------------


def _cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    # getrusage, not os.times: microseconds instead of clock ticks.
    own = resource.getrusage(resource.RUSAGE_SELF)
    pool = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + pool.ru_utime + pool.ru_stime


def _peak_rss_mb() -> float:
    """Largest resident set among this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, pool) / 1024.0  # Linux reports KiB


def _cache_bytes(cache_dir: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(cache_dir):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files if f.endswith(".pkl"))
    return total


def run_campaign(workload: str, seed: int, scale: float, cache_dir: str, spawn_only: bool):
    """Set up, then time ``Campaign.run`` + reduce + report."""
    import repro.metrics  # noqa: F401 - the reducers' import is set-up, not measured
    from repro.runner import Campaign, DiskCache, RunCache

    specs = build_specs(workload, seed, scale)
    campaign = Campaign(jobs=1, cache=RunCache(disk=DiskCache(cache_dir)))
    out = {"ready_t": time.monotonic()}
    if spawn_only:
        return out
    error = None
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        outcome = campaign.run([spec for _, spec in specs])
        summaries = {
            cell: reduce_cell(spec.kind, result.value)
            for (cell, spec), result in zip(specs, outcome)
        }
        json.dumps(summaries, sort_keys=True)  # the rendered report
    except Exception:  # a raising cell is a failed cell, not a lost run
        error = f"raised: {traceback.format_exc(limit=4)}"
    out["wall_s"] = time.perf_counter() - t0
    out["cpu_s"] = _cpu_seconds() - cpu0
    out["peak_rss_mb"] = _peak_rss_mb()
    if error is not None:
        out.update(cells={cell: {"error": error} for cell, _ in specs}, events=0,
                   cell_seconds=0.0, jobs=1)
        return out
    # Checking is the harness's work, so it stays outside the timed call
    # and after the memory high-water mark has been read.
    cells = {}
    for (cell, spec), result in zip(specs, outcome):
        cells[cell] = check_cell(spec.kind, result.value, summaries[cell])
        cells[cell]["wall_s"] = result.metrics.wall_time_s
    out.update(cells=cells, events=outcome.total_events,
               cell_seconds=outcome.compute_wall_s, jobs=1)
    return out


def run_cli(seed: int, scale: float, cache_dir: str, spawn_only: bool):
    """Set up (import the CLI), then time ``repro.cli.main(argv)``."""
    t_import = time.perf_counter()
    from repro.cli import main

    import_s = time.perf_counter() - t_import
    argv = table1_argv(seed, scale, cache_dir)
    captured = io.StringIO()
    cold = _cache_bytes(cache_dir) == 0
    out = {"ready_t": time.monotonic(), "cli_import_s": import_s}
    if spawn_only:
        return out
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = main(argv)
    out["wall_s"] = time.perf_counter() - t0
    out["cpu_s"] = _cpu_seconds() - cpu0
    out["peak_rss_mb"] = _peak_rss_mb()
    out["jobs"] = 2
    try:
        if code != 0:
            raise InvariantBroken(f"cli exited {code}")
        table = parse_table1(captured.getvalue(), cold)
    except InvariantBroken as exc:
        out["cells"] = {cell: {"error": f"invariant: {exc}"} for cell in TABLE1_CELLS}
        out["events"] = 0
        out["cell_seconds"] = 0.0
        return out
    out["cells"] = table_cells(table)
    out["events"] = table["events"]
    out["cell_seconds"] = table["cell_seconds"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--mode", required=True, choices=("rep", "spawn", "traced"))
    args = parser.parse_args(argv)

    if args.mode == "traced":
        import traced

        out = traced.run(args.workload, args.seed, args.scale, args.cache_dir)
    elif args.workload == "table1_cli_jobs2":
        out = run_cli(args.seed, args.scale, args.cache_dir, args.mode == "spawn")
    else:
        out = run_campaign(
            args.workload, args.seed, args.scale, args.cache_dir, args.mode == "spawn"
        )
    out["cache_bytes"] = _cache_bytes(args.cache_dir)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

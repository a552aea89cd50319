"""Golden-trace regression harness: canonical digests, diffs, blessing.

A *digest* is a compact, canonical summary of one simulation — event
counts, flow-completion records, aggregate queue statistics — small
enough to check into the repository (JSON under
``src/repro/validate/goldens/``) yet sensitive enough that perturbing a
transport constant (BOS β, marking K, RTOmin …) changes it.  Raw event
logs are deliberately *not* stored: digests diff cleanly and survive
refactors that preserve behaviour.

Workflow:

* ``pytest -m invariants`` (or plain ``pytest``) compares fresh digests
  of the canonical scenarios in :mod:`repro.validate.scenarios` against
  the checked-in goldens and fails with a key-by-key diff on mismatch;
* after an *intentional* behaviour change, regenerate with
  ``PYTHONPATH=src python -m repro validate --bless`` (or
  ``pytest tests/test_validate_golden.py --bless``) and commit the
  updated JSON together with the change that explains it.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Optional, Tuple

#: Significant digits kept for floats in digests.  Simulations are
#: bit-deterministic, so this is about readable goldens and stable diffs,
#: not about hiding jitter.
FLOAT_DIGITS = 12


def golden_dir() -> pathlib.Path:
    """Where the checked-in golden digests live."""
    return pathlib.Path(__file__).parent / "goldens"


def canonical(value: Any) -> Any:
    """Normalize a digest value: round floats, sort dict keys, tuples->lists."""
    if isinstance(value, float):
        return float(f"{value:.{FLOAT_DIGITS}g}")
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def digest_to_json(digest: Dict[str, Any]) -> str:
    """The canonical serialized form (what goldens store and diffs compare)."""
    return json.dumps(canonical(digest), indent=2, sort_keys=True) + "\n"


def load_golden(name: str) -> Optional[Dict[str, Any]]:
    """The checked-in digest for ``name``, or ``None`` when never blessed."""
    path = golden_dir() / f"{name}.json"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


def save_golden(name: str, digest: Dict[str, Any]) -> pathlib.Path:
    """Write (bless) ``digest`` as the new golden for ``name``."""
    base = golden_dir()
    base.mkdir(parents=True, exist_ok=True)
    path = base / f"{name}.json"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(digest_to_json(digest))
    return path


def diff_digests(golden: Any, actual: Any) -> List[str]:
    """Key-by-key differences between two canonicalized digests.

    Returns human-readable lines like
    ``flows[0].delivered_segments: golden=1370 actual=1295``; an empty
    list means the digests match.
    """
    return _diff(canonical(golden), canonical(actual), "")


def _diff(golden: Any, actual: Any, prefix: str) -> List[str]:
    lines: List[str] = []
    if isinstance(golden, dict) and isinstance(actual, dict):
        for key in sorted(set(golden) | set(actual)):
            where = f"{prefix}.{key}" if prefix else str(key)
            if key not in golden:
                lines.append(f"{where}: missing from golden, actual={actual[key]!r}")
            elif key not in actual:
                lines.append(f"{where}: golden={golden[key]!r}, missing from actual")
            else:
                lines.extend(_diff(golden[key], actual[key], where))
        return lines
    if isinstance(golden, list) and isinstance(actual, list):
        if len(golden) != len(actual):
            lines.append(
                f"{prefix}: length golden={len(golden)} actual={len(actual)}"
            )
        for index, (g, a) in enumerate(zip(golden, actual)):
            lines.extend(_diff(g, a, f"{prefix}[{index}]"))
        return lines
    if golden != actual:
        lines.append(f"{prefix}: golden={golden!r} actual={actual!r}")
    return lines


def check_digest(name: str, digest: Dict[str, Any], bless: bool = False) -> List[str]:
    """Compare ``digest`` against the checked-in golden (or bless it).

    Returns the diff lines (empty = match).  With ``bless=True`` the
    digest is written as the new golden and the (pre-bless) diff is still
    returned, so a bless run shows what changed.
    """
    golden = load_golden(name)
    if golden is None:
        differences = [f"{name}: no golden checked in (run with --bless to create it)"]
    else:
        differences = diff_digests(golden, digest)
    if bless:
        save_golden(name, digest)
        return [] if golden is None else differences
    return differences


def format_diff(name: str, differences: List[str]) -> str:
    """A loud, actionable mismatch report for one scenario."""
    header = (
        f"golden-trace mismatch for scenario {name!r} "
        f"({len(differences)} difference{'s' if len(differences) != 1 else ''}).\n"
        "If this change is intentional, regenerate with:\n"
        "  PYTHONPATH=src python -m repro validate --bless\n"
        "and commit the updated golden alongside the change.\n"
    )
    return header + "\n".join(f"  {line}" for line in differences)


# ----------------------------------------------------------------------
# Digest builders
# ----------------------------------------------------------------------


def digest_network_queues(net: Any) -> Dict[str, int]:
    """Aggregate queue statistics over every link of a network."""
    totals = {"enqueued": 0, "dequeued": 0, "dropped": 0, "marked": 0}
    max_occupancy = 0
    for link in net.links:
        stats = link.queue.stats
        totals["enqueued"] += stats.enqueued
        totals["dequeued"] += stats.dequeued
        totals["dropped"] += stats.dropped
        totals["marked"] += stats.marked
        if stats.max_occupancy > max_occupancy:
            max_occupancy = stats.max_occupancy
    totals["max_occupancy"] = max_occupancy
    return totals


def digest_connection(conn: Any) -> Dict[str, Any]:
    """Compact summary of one finished (or stopped) transfer."""
    senders = [s.sender for s in conn.subflows]
    return {
        "flow": conn.flow_id,
        "scheme": conn.scheme,
        "subflows": len(conn.subflows),
        "completed": conn.completed,
        "complete_time": conn.complete_time,
        "delivered_segments": conn.delivered_segments,
        "segments_sent": sum(s.segments_sent for s in senders),
        "retransmissions": sum(s.retransmissions for s in senders),
        "timeouts": sum(s.timeouts for s in senders),
        "rounds": sum(s.rounds for s in senders),
        "bos_reductions": sum(
            getattr(cc, "reductions", 0) for cc in conn.coupling.controllers
        ),
        "goodput_bps": conn.goodput_bps(),
    }


def digest_bottleneck_run(
    net: Any, connections: List[Any], series: Any = None
) -> Dict[str, Any]:
    """Digest for a hand-built small-topology run (bottleneck scenarios);
    a sampled run's ``series`` is pinned column by column, in order."""
    digest = {
        "events": net.sim.events_processed,
        "final_time": net.sim.now,
        "queues": digest_network_queues(net),
        "flows": [digest_connection(conn) for conn in connections],
    }
    if series is not None:
        digest["sample_times"] = list(series.times)
        digest["series"] = [[key, list(series[key])] for key in series.columns]
    return digest


def digest_fattree(result: Any) -> Dict[str, Any]:
    """Digest of a :class:`~repro.experiments.fattree_eval.FatTreeResult`."""
    goodput: Dict[str, Any] = {}
    completed: Dict[str, int] = {}
    unfinished: Dict[str, int] = {}
    for label in sorted(set(result.records) | set(result.unfinished)):
        completed[label] = len(result.records.get(label, []))
        unfinished[label] = len(result.unfinished.get(label, []))
        goodput[label] = result.mean_goodput_bps(label)
    rtt = {
        category: {
            "count": len(samples),
            "mean_s": (sum(samples) / len(samples)) if samples else 0.0,
        }
        for category, samples in result.rtt_samples.items()
    }
    layers: Dict[str, List[float]] = {}
    for _name, layer, util in result.link_utilization:
        layers.setdefault(layer, []).append(util)
    utilization = {
        layer: sum(values) / len(values) for layer, values in layers.items()
    }
    return {
        "events": result.events,
        "duration": result.duration,
        "total_marked": result.total_marked,
        "total_dropped": result.total_dropped,
        "flows_completed": completed,
        "flows_unfinished": unfinished,
        "mean_goodput_bps": goodput,
        "jct": {
            "jobs_started": result.jobs_started,
            "jobs_completed": len(result.jcts),
            "mean_s": (sum(result.jcts) / len(result.jcts)) if result.jcts else 0.0,
        },
        "rtt": rtt,
        "utilization": utilization,
    }


def digest_workload(result: Any) -> Dict[str, Any]:
    """Digest of a :class:`~repro.experiments.workload_matrix.WorkloadResult`.

    Pins the schedule (arrival count, offered bytes), the FCT-by-bin
    table and the per-layer 99p queue depths — the exact numbers the
    workload matrix reports — so a drift in the samplers, the open-loop
    launcher or the reducers trips the golden.
    """
    return {
        "events": result.events,
        "duration": result.duration,
        "scheduled_flows": result.scheduled_flows,
        "launched_flows": result.launched_flows,
        "offered_bytes": result.offered_bytes,
        "flows_completed": len(result.records),
        "flows_unfinished": len(result.unfinished),
        "achieved_load": result.achieved_load(),
        "fct_by_bin": result.fct_table(),
        "queue_p99": {
            layer: result.queue_p99(layer) for layer in sorted(result.queue_samples)
        },
        "total_marked": result.total_marked,
        "total_dropped": result.total_dropped,
    }


def digest_incast_sweep(result: Any) -> Dict[str, Any]:
    """Digest of an :class:`~repro.experiments.workload_matrix.IncastSweepResult`."""
    jcts = result.jcts
    return {
        "events": result.events,
        "duration": result.duration,
        "jobs_started": result.jobs_started,
        "jobs_completed": len(jcts),
        "jct_mean_s": (sum(jcts) / len(jcts)) if jcts else 0.0,
        "collapse_ratio": result.collapse_ratio(),
        "responses_completed": len(result.responses),
        "response_fct": result.response_fct(),
        "queue_p99": {
            layer: result.queue_p99(layer) for layer in sorted(result.queue_samples)
        },
        "total_marked": result.total_marked,
        "total_dropped": result.total_dropped,
    }


def digest_hash(digest: Dict[str, Any]) -> str:
    """A short content hash of a digest (determinism smoke tests)."""
    import hashlib

    return hashlib.sha256(digest_to_json(digest).encode("utf-8")).hexdigest()[:16]


__all__ = [
    "FLOAT_DIGITS",
    "golden_dir",
    "canonical",
    "digest_to_json",
    "load_golden",
    "save_golden",
    "diff_digests",
    "check_digest",
    "format_diff",
    "digest_network_queues",
    "digest_connection",
    "digest_bottleneck_run",
    "digest_fattree",
    "digest_workload",
    "digest_incast_sweep",
    "digest_hash",
]

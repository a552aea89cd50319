"""Typed telemetry records and their JSON/JSONL serialization.

One :func:`run_record` per executed campaign cell is the document the
telemetry layer emits (see :class:`repro.obs.telemetry.Telemetry`).

Determinism contract: every field of every record is a pure function of
the spec **except** the wall-clock measurements (``wall_time_s``,
``wall_sim_ratio`` and the ``wall_s`` columns inside the profile), the
allocation report's memory columns (tracemalloc sees the host's free
lists) and the cache-provenance fields (``source``/``cached`` say where
a result came from, not what it is).  :func:`deterministic_view` strips
exactly those, and the telemetry determinism tests pin that what remains
is identical across ``--jobs 1`` / ``--jobs 4`` and cache hit / miss.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.sim.probe import BRACKET_ORDER

if TYPE_CHECKING:  # pragma: no cover - typing only; see run_record()
    from repro.runner.spec import RunResult

#: Bump when the JSONL record layout changes incompatibly.
#: 2: added the ``backend`` field (packet vs fluid execution).
#: 3: removed ``profile.heap.batches`` / ``batched_packets`` together
#:    with batched link service (they were 0 in every record written).
#: 4: added ``probes``: the finish() report of every other probe kind.
TELEMETRY_SCHEMA = 4

#: Wall-clock top-level record fields (host-dependent, never compared).
WALL_CLOCK_FIELDS = ("wall_time_s", "wall_sim_ratio")

#: Provenance top-level record fields (depend on cache state, not spec).
PROVENANCE_FIELDS = ("source", "cached")


# ----------------------------------------------------------------------
# The per-run JSONL document
# ----------------------------------------------------------------------


def run_record(result: "RunResult") -> dict:
    """The one-JSONL-document-per-run telemetry record for a cell.

    Fields: schema version, spec fingerprint/kind/label, cache tier the
    result came from, event count, invariant checks, simulated duration
    (when the config declares one), wall time and wall/sim ratio, and —
    for profiled runs — the engine profile (per-component event counts,
    hot-spot table, heap health); ``probes`` holds the report of every
    other probe kind.  A kind that did not run reads ``null``, as do all
    of them on a cached cell: nothing executed, so nothing was observed.
    """
    # Imported here, not at module scope: repro.runner.campaign imports
    # repro.obs.telemetry (and so this module), which would be a cycle.
    from repro.runner.cache import spec_fingerprint
    from repro.runner.registry import BACKEND_PACKET, backend_of

    try:
        backend = backend_of(result.spec.kind)
    except KeyError:
        backend = BACKEND_PACKET
    metrics = result.metrics
    sim_time = getattr(result.spec.config, "duration", None)
    if sim_time is not None:
        sim_time = float(sim_time)
    ratio = None
    if sim_time and not metrics.cached:
        ratio = metrics.wall_time_s / sim_time
    probes = {kind: metrics.probes.get(kind) for kind in BRACKET_ORDER}
    profile = probes.pop("profile")
    return {
        "schema": TELEMETRY_SCHEMA,
        "fingerprint": spec_fingerprint(result.spec),
        "kind": result.spec.kind,
        "backend": backend,
        "label": result.spec.label(),
        "source": metrics.source,
        "cached": metrics.cached,
        "events": metrics.events,
        "invariant_checks": metrics.invariant_checks,
        "sim_time_s": sim_time,
        "wall_time_s": metrics.wall_time_s,
        "wall_sim_ratio": ratio,
        "profile": profile.as_dict() if profile is not None else None,
        "probes": probes,
    }


def deterministic_view(record: dict) -> dict:
    """The spec-determined subset of a record (what determinism tests pin).

    Drops the wall-clock and provenance fields; inside the profile, keeps
    per-component *event counts* and the heap counters but drops the
    ``wall_s`` columns and the wall-ordered hot-spot table; inside the
    allocation report, keeps the event counts only.
    """
    view = {
        key: value
        for key, value in record.items()
        if key not in WALL_CLOCK_FIELDS
        and key not in PROVENANCE_FIELDS
        and key != "profile"
    }
    alloc = record.get("probes", {}).get("alloc")
    if alloc is not None:
        alloc = {
            "events": alloc["events"],
            "hot_events": alloc["hot_events"],
            "functions": {n: f["events"] for n, f in alloc["functions"].items()},
        }
        view["probes"] = {**record["probes"], "alloc": alloc}
    profile = record.get("profile")
    if profile is not None:
        profile = {
            "events": profile["events"],
            "components": [
                {"component": c["component"], "events": c["events"]}
                for c in profile["components"]
            ],
            "heap": profile["heap"],
        }
    view["profile"] = profile
    return view


def to_jsonl(records: Any) -> str:
    """Serialize records (dicts) as sorted-key JSONL, one line each."""
    return "".join(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        for record in records
    )


__all__ = [
    "TELEMETRY_SCHEMA",
    "WALL_CLOCK_FIELDS",
    "PROVENANCE_FIELDS",
    "run_record",
    "deterministic_view",
    "to_jsonl",
]

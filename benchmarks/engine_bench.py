"""The engine perf-trajectory runner: measures events/sec, gates CI.

This is the substrate speedometer.  It times a small set of canonical
cells — two scheduler microbenches plus full experiment cells (the Fig. 1
convergence bottleneck, a k=4 fat-tree permutation, the incast cell) —
and maintains ``BENCH_engine.json`` at the repository root as an
append-only *trajectory*: one history entry per recorded engine state,
so speedups (and regressions) are visible in the diff of a single file.

Usage::

    python benchmarks/engine_bench.py                  # measure + print
    python benchmarks/engine_bench.py --record LABEL   # append to trajectory
    python benchmarks/engine_bench.py --check          # compare vs last entry
    python benchmarks/engine_bench.py --check --threshold 0.15   # stricter

``--check`` is what ``scripts/check.sh --bench`` and the CI job run: it
re-measures every cell present in the last trajectory entry (cells that
no longer exist are skipped) and fails when any falls more than
``threshold`` (default :data:`DEFAULT_THRESHOLD`, 30%) below the
recorded events/sec.  Cells are measured best-of-N (``REPRO_BENCH_REPEATS``,
default 3) to shave scheduler noise; absolute numbers are still
host-dependent, which is why the gate is a generous ratio, not an
equality.

The harness runs against both the seed binary-heap engine and the
calendar-queue engine: it feature-detects ``Simulator.post`` (the
allocation-free fast path) and simply omits cells the engine under test
cannot run, so the committed baseline entry really was measured on the
seed engine with the same workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from typing import Any, Callable, Dict, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_engine.json"
BENCH_VERSION = 1

#: Best-of-N repetitions per cell.
REPEATS = max(1, int(os.environ.get("REPRO_BENCH_REPEATS", "3")))

#: The CI regression gate, and its only definition: fail when a cell
#: drops below ``(1 - threshold)`` of the last recorded events/sec.
#: Wide on purpose: single-core CI boxes jitter by 10-20% run to run;
#: the gate is for catching algorithmic regressions, not ulps.
DEFAULT_THRESHOLD = 0.30


def _ensure_src_on_path() -> None:
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


# ----------------------------------------------------------------------
# Cells.  Each returns (events_fired, wall_seconds).
# ----------------------------------------------------------------------


def cell_micro_schedule_fire() -> Tuple[int, float]:
    """Schedule 100k cancellable events up front, then drain the loop.

    Exercises the full :meth:`Simulator.schedule` path (handle object,
    cancellation bookkeeping) plus the far-horizon structure: events are
    spread over 100 ms, far beyond any near-time window.
    """
    from repro.sim.engine import Simulator

    sim = Simulator()
    noop = lambda: None  # noqa: E731 - the cheapest possible callback
    n = 100_000
    started = time.perf_counter()
    schedule = sim.schedule
    for i in range(n):
        schedule(i * 1e-6, noop)
    sim.run()
    return sim.events_processed, time.perf_counter() - started


def cell_micro_hotpath_fire() -> Tuple[int, float]:
    """Self-scheduling event chains: the pattern the packet layers drive.

    Eight concurrent chains, each event posting its successor a few
    microseconds ahead — the shape of link serialization/propagation
    traffic.  Uses :meth:`Simulator.post` (the allocation-free path) when
    the engine provides it, else falls back to :meth:`schedule`, so the
    same cell runs on the seed engine.
    """
    from repro.sim.engine import Simulator

    sim = Simulator()
    post = getattr(sim, "post", None)
    n = 200_000
    fired = [0]

    if post is not None:
        def tick() -> None:
            fired[0] += 1
            if fired[0] < n:
                post(1.3e-6, tick)
    else:
        def tick() -> None:
            fired[0] += 1
            if fired[0] < n:
                sim.schedule(1.3e-6, tick)

    for lane in range(8):
        sim.schedule(lane * 1e-7, tick)
    started = time.perf_counter()
    sim.run()
    return sim.events_processed, time.perf_counter() - started


def cell_fig1_convergence() -> Tuple[int, float]:
    """The Fig. 1 shape: XMP flows converging on one ECN bottleneck."""
    from repro.mptcp.connection import MptcpConnection
    from repro.topology.bottleneck import build_single_bottleneck

    net = build_single_bottleneck(num_pairs=2, marking_threshold=10)
    path0 = net.flow_path(0)
    conns = [
        MptcpConnection(net, "S0", "D0", [path0, path0], scheme="xmp",
                        size_bytes=2_000_000),
        MptcpConnection(net, "S1", "D1", [net.flow_path(1)], scheme="xmp",
                        size_bytes=2_000_000),
    ]
    for conn in conns:
        conn.start()
    started = time.perf_counter()
    net.sim.run(until=1.0)
    return net.sim.events_processed, time.perf_counter() - started


def _fattree_cell(pattern: str) -> Tuple[int, float]:
    from repro.experiments.fattree_eval import FatTreeScenario, _simulate

    scenario = FatTreeScenario(pattern=pattern, duration=0.02, k=4, seed=1)
    started = time.perf_counter()
    result = _simulate(scenario)
    return result.events, time.perf_counter() - started


def cell_fattree_permutation() -> Tuple[int, float]:
    """A k=4 fat-tree permutation cell."""
    return _fattree_cell("permutation")


def cell_fattree_incast() -> Tuple[int, float]:
    """The incast cell: RTO-dominated fan-in on a k=4 fat tree."""
    return _fattree_cell("incast")


def cell_fluid_fattree_k16() -> Tuple[int, float]:
    """The fluid backend at scale the packet engine cannot reach: a k=16
    fat tree (1,024 hosts, 6,144 directed links) under 10,240 long-lived
    XMP-2 flows, integrated by the numpy vector solver.  Events are ODE
    state updates — the fluid backend's events-processed equivalent, so
    events/sec stays the cross-backend throughput currency.
    """
    from repro.fluid.backend import FluidScenario, _simulate

    scenario = FluidScenario(
        scheme="xmp", topology="fattree", flows=10_240, subflows=2,
        duration=0.005, k=16, solver="vector",
    )
    started = time.perf_counter()
    result = _simulate(scenario)
    return result.events, time.perf_counter() - started


def _fluid_vector_available() -> bool:
    from repro.fluid.solver import vector_available

    return vector_available()


#: Cell name -> (function, availability predicate or None).
CELLS: Dict[str, Tuple[Callable[[], Tuple[int, float]],
                       Optional[Callable[[], bool]]]] = {
    "micro_schedule_fire": (cell_micro_schedule_fire, None),
    "micro_hotpath_fire": (cell_micro_hotpath_fire, None),
    "fig1_convergence": (cell_fig1_convergence, None),
    "fattree_permutation": (cell_fattree_permutation, None),
    "fattree_incast": (cell_fattree_incast, None),
    "fluid_fattree_k16": (cell_fluid_fattree_k16, _fluid_vector_available),
}


# ----------------------------------------------------------------------
# Measurement and the trajectory file
# ----------------------------------------------------------------------


def measure_cell(name: str) -> Optional[Dict[str, Any]]:
    """Best-of-``REPEATS`` measurement of one cell (``None`` if N/A)."""
    fn, available = CELLS[name]
    if available is not None and not available():
        return None
    best: Optional[Dict[str, Any]] = None
    for _ in range(REPEATS):
        events, wall = fn()
        rate = events / wall if wall > 0 else 0.0
        if best is None or rate > best["events_per_sec"]:
            best = {
                "events": events,
                "wall_s": round(wall, 4),
                "events_per_sec": round(rate, 1),
            }
    return best


def measure_all() -> Dict[str, Dict[str, Any]]:
    _ensure_src_on_path()
    results: Dict[str, Dict[str, Any]] = {}
    for name in CELLS:
        cell = measure_cell(name)
        if cell is not None:
            results[name] = cell
            print(f"  {name:<32} {cell['events']:>9,} events  "
                  f"{cell['wall_s']:>8.3f}s  {cell['events_per_sec']:>12,.0f} ev/s")
        else:
            print(f"  {name:<32} (not supported by this engine; skipped)")
    return results


def load_trajectory() -> Dict[str, Any]:
    if BENCH_FILE.exists():
        with open(BENCH_FILE, "r", encoding="utf-8") as handle:
            return json.load(handle)
    return {"version": BENCH_VERSION, "history": []}


def save_trajectory(data: Dict[str, Any]) -> None:
    with open(BENCH_FILE, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def record(label: str) -> int:
    print(f"recording trajectory entry {label!r} (best of {REPEATS}):")
    cells = measure_all()
    data = load_trajectory()
    entry = {
        "label": label,
        "python": ".".join(str(part) for part in sys.version_info[:3]),
        "cells": cells,
    }
    history = [e for e in data.get("history", []) if e.get("label") != label]
    history.append(entry)
    data["history"] = history
    data["version"] = BENCH_VERSION
    save_trajectory(data)
    print(f"wrote {BENCH_FILE.relative_to(REPO_ROOT)} "
          f"({len(history)} trajectory entries)")
    _print_trajectory(history)
    return 0


def _print_trajectory(history: Any) -> None:
    if len(history) < 2:
        return
    first, last = history[0], history[-1]
    print(f"\ntrajectory {first['label']!r} -> {last['label']!r}:")
    for name, cell in last["cells"].items():
        base = first["cells"].get(name)
        if base is None:
            print(f"  {name:<32} {cell['events_per_sec']:>12,.0f} ev/s  (new cell)")
            continue
        ratio = cell["events_per_sec"] / base["events_per_sec"]
        print(f"  {name:<32} {base['events_per_sec']:>12,.0f} -> "
              f"{cell['events_per_sec']:>12,.0f} ev/s  ({ratio:.2f}x)")


def check(threshold: float) -> int:
    data = load_trajectory()
    history = data.get("history", [])
    if not history:
        print(f"error: {BENCH_FILE.name} has no recorded trajectory entry; "
              "run with --record LABEL first", file=sys.stderr)
        return 2
    recorded = history[-1]
    print(f"checking against trajectory entry {recorded['label']!r} "
          f"(fail below {100 * (1 - threshold):.0f}% of recorded events/sec):")
    failures = []
    for name, base in recorded["cells"].items():
        if name not in CELLS:
            print(f"  {name:<32} (unknown cell in trajectory; skipped)")
            continue
        cell = measure_cell(name)
        if cell is None:
            failures.append(f"{name}: recorded in trajectory but no longer "
                            "supported by the engine")
            continue
        ratio = cell["events_per_sec"] / base["events_per_sec"]
        verdict = "ok" if ratio >= 1.0 - threshold else "REGRESSION"
        print(f"  {name:<32} {base['events_per_sec']:>12,.0f} ev/s recorded, "
              f"{cell['events_per_sec']:>12,.0f} measured  "
              f"({ratio:.2f}x)  {verdict}")
        if ratio < 1.0 - threshold:
            failures.append(
                f"{name}: {cell['events_per_sec']:,.0f} ev/s is "
                f"{100 * (1 - ratio):.1f}% below the recorded "
                f"{base['events_per_sec']:,.0f}"
            )
    if failures:
        print("\nperformance regression gate FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        print("(if the slowdown is intentional, re-record with "
              "`python benchmarks/engine_bench.py --record LABEL` and commit "
              "the updated BENCH_engine.json)", file=sys.stderr)
        return 1
    print("bench gate ok")
    return 0


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", metavar="LABEL",
                        help="measure and append a trajectory entry")
    parser.add_argument("--check", action="store_true",
                        help="measure and fail on regression vs the last entry")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="allowed fractional drop for --check "
                             f"(default {DEFAULT_THRESHOLD})")
    args = parser.parse_args(argv)
    _ensure_src_on_path()
    if args.record and args.check:
        parser.error("--record and --check are mutually exclusive")
    if args.record:
        return record(args.record)
    if args.check:
        return check(args.threshold)
    print(f"measuring (best of {REPEATS}):")
    measure_all()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

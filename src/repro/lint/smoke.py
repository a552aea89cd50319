"""The sanitizer smoke: ``python -m repro.lint.smoke``.

Runs each golden scenario once with all four probe kinds on the seam —
``probing(RaceMonitor(), AllocMonitor(registry), Profiler())`` around a
scenario that brings its own validator; the seam's bracket order puts
the race monitor outside the allocation monitor's tracemalloc window and
the profiler inside it — and then the two engine micro cells.  Exit
code 0 needs all of:

* **no observed collisions** — no two distinct callbacks rebound the
  same attribute of one object within an equal-``(time, priority)``
  batch (:mod:`repro.lint.race.runtime`);
* **no unexplained allocators** — every registered hot function that
  tracemalloc saw allocating on a majority of its firings has a static
  explanation: an allocation site (waived or not) reachable from it
  through the summary call graph
  (:func:`repro.lint.perf.analyzer.explained_hot_functions`);
* **no unregistered hot callback** — no callback missing from
  ``hotpaths.toml`` fires :data:`HOT_SHARE` or more of a scenario's
  events (a deterministic count, from the profiler's per-component
  tally), so the registry the hot-path rules and the allocation
  sanitizer work from cannot drift from where the events go;
* **every probe saw every event** — the four probes' event counts agree;
* **no invariant violations** — the validator stayed quiet;
* **bit-identical digests** — the probes observed without perturbing:
  every scenario digest still matches its checked-in golden;
* **allocation-free micro cells** — with *every* callback traced after a
  free-list warmup segment, neither the ``schedule()`` cell nor the
  ``post()`` cell (the ledger's ``sim.schedule_fire_ns`` /
  ``sim.post_fire_ns`` drivers) allocates on a majority of firings.

``--out`` writes one JSONL report regardless of outcome — one line per
scenario and per micro cell, whose ``probes`` object holds the monitors'
``finish()`` reports exactly as a run record does (see OBSERVABILITY.md)
— so CI can upload it as an artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.lint.core import iter_python_files
from repro.lint.perf.analyzer import explained_hot_functions
from repro.lint.perf.hotpaths import HotPathRegistry
from repro.lint.perf.runtime import AllocMonitor
from repro.lint.race.runtime import RaceMonitor
from repro.lint.sem.summary import build_summary
from repro.obs.profiler import Profiler
from repro.sim.engine import Simulator
from repro.sim.probe import probing
from repro.validate.golden import check_digest, format_diff
from repro.validate.scenarios import run_scenario, scenario_names

#: The tree the static explanation closure is built from: the package
#: this module was imported from, wherever the process was started.
PACKAGE_ROOT = Path(__file__).resolve().parents[1]

#: An unregistered callback firing this share of a scenario's events
#: fails the smoke (largest on the goldens today: ``Timer._fire``, 1.2 %).
HOT_SHARE = 0.05

#: Micro-cell sizes: enough events past warmup that free-list noise
#: cannot reach the majority threshold, small enough for a CI smoke.
_MICRO_WARMUP = 20_000
_MICRO_EVENTS = 80_000


def tree_summaries() -> List[Dict[str, Any]]:
    """Phase-1 summaries of the whole ``repro`` package."""
    return [
        build_summary(str(path), path.read_text(encoding="utf-8"))
        for path in iter_python_files([PACKAGE_ROOT])
    ]


# -- micro cells ---------------------------------------------------------


def _micro_schedule_fire(monitor: AllocMonitor) -> int:
    """The ``schedule()`` cell, split so the monitor attaches only after
    a free-list warmup segment."""
    sim = Simulator()
    noop = lambda: None  # noqa: E731 - the cheapest possible callback
    schedule = sim.schedule
    for i in range(_MICRO_EVENTS):
        schedule(i * 1e-6, noop)
    sim.run(max_events=_MICRO_WARMUP)
    monitor.attach(sim)
    sim.run()
    return sim.events_processed


def _micro_hotpath_fire(monitor: AllocMonitor) -> int:
    """The ``post()`` cell: self-posting chains through the
    allocation-free hot path."""
    sim = Simulator()
    post = sim.post
    fired = [0]

    def tick() -> None:
        fired[0] += 1
        if fired[0] < _MICRO_EVENTS:
            post(1.3e-6, tick)

    for lane in range(8):
        sim.schedule(lane * 1e-7, tick)
    sim.run(max_events=_MICRO_WARMUP)
    monitor.attach(sim)
    sim.run()
    return sim.events_processed


MICRO_CELLS: Dict[str, Callable[[AllocMonitor], int]] = {
    "micro_schedule_fire": _micro_schedule_fire,
    "micro_hotpath_fire": _micro_hotpath_fire,
}


# -- the run -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint.smoke",
        description=(
            "run golden scenarios under the race and allocation "
            "sanitizers, cross-check digests, observed collisions and "
            "observed allocators, then trace the engine micro cells"
        ),
    )
    parser.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="golden scenario to run (repeatable; default: all of them)",
    )
    parser.add_argument("--out", metavar="FILE",
                        help="write the JSONL sanitizer report here")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only print failures")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)

    known = scenario_names()
    names = list(args.scenario) if args.scenario else known
    for name in names:
        if name not in known:
            parser.error(
                f"unknown scenario {name!r} (known: {', '.join(known)})"
            )

    registry = HotPathRegistry.load()
    explained = explained_hot_functions(tree_summaries(), registry)

    records: List[Dict[str, Any]] = []
    ok = True
    for name in names:
        with probing(RaceMonitor(), AllocMonitor(registry), Profiler()) as probes:
            digest, validator = run_scenario(name)
        race, alloc, profile = (probe.finish(name) for probe in probes)
        unexplained = sorted(set(alloc["allocators"]) - explained)
        problems: List[str] = []
        if race["collisions"]:
            problems.append(f"{race['collisions']} collision(s)")
        if unexplained:
            problems.append(
                f"{len(unexplained)} unexplained allocator(s): "
                + ", ".join(unexplained)
            )
        for stat in profile.components:
            dotted = f"repro.{stat.component}"
            if stat.events >= HOT_SHARE * profile.events and dotted not in registry:
                problems.append(
                    f"{dotted} fires {stat.events} of {profile.events} "
                    "events but is not in hotpaths.toml"
                )
        if not (
            profile.events == race["events"] == alloc["events"]
            == validator.events_seen
        ):
            problems.append(
                f"probes disagree on the event count (profile "
                f"{profile.events}, race {race['events']}, alloc "
                f"{alloc['events']}, validate {validator.events_seen})"
            )
        if validator.violations:
            problems.append(
                f"{len(validator.violations)} invariant violation(s)"
            )
        differences = check_digest(name, digest)
        if differences:
            problems.append("digest mismatch under the sanitizers")
            print(format_diff(name, differences), file=sys.stderr)
        records.append({
            "scenario": name,
            "unexplained": unexplained,
            "probes": {"race": race, "alloc": alloc},
        })
        if problems or not args.quiet:
            print(
                f"{name:<28} {', '.join(problems) or 'ok'}  "
                f"[{race['events']} events, "
                f"{race['batches']} same-instant batches, "
                f"{alloc['hot_events']} hot]"
            )
        ok = ok and not problems

    for name, cell in MICRO_CELLS.items():
        monitor = AllocMonitor(trace_all=True)
        try:
            events = cell(monitor)
        finally:
            monitor.close()
        report = monitor.finish(name)
        allocators = report["allocators"]
        records.append({"scenario": name, "probes": {"alloc": report}})
        if allocators or not args.quiet:
            status = (
                f"{len(allocators)} per-event allocator(s): "
                + ", ".join(allocators)
                if allocators
                else "ok"
            )
            print(
                f"{name:<28} {status}  [{events} events, "
                f"{report['hot_events']} traced]"
            )
        ok = ok and not allocators

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        if not args.quiet:
            print(f"smoke report: {args.out} ({len(records)} record(s))")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())

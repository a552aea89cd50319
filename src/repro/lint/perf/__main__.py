"""Sanitizer smoke runner: ``python -m repro.lint.perf``.

Runs canonical golden scenarios with the allocation sanitizer active
(see :mod:`repro.lint.perf.runtime`), then asserts three things:

* **no unexplained allocators** — every registered hot function that
  tracemalloc observed allocating on a majority of its firings has a
  static explanation: an allocation site (waived or not) reachable from
  it through the summary call graph
  (:func:`repro.lint.perf.analyzer.explained_hot_functions`);
* **bit-identical digests** — the sanitizer observed without
  perturbing: every scenario digest still matches its checked-in
  golden;
* **no invariant violations** — the validator stayed quiet.

``--micro`` instead drives the two engine micro cells
(``micro_schedule_fire`` / ``micro_hotpath_fire`` from
``benchmarks/engine_bench.py``) with *every* callback traced after a
free-list warmup segment, and fails on any callback that still
allocates on a majority of firings — the deterministic form of the
bench job's wall-clock allocation gate.

Either failure exits 1.  ``--out`` writes the JSONL allocation report
(per-function records then one summary line per scenario; see
OBSERVABILITY.md) regardless of outcome, so CI can upload it as an
artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.lint.perf.hotpaths import HotPathRegistry
from repro.lint.perf.runtime import AllocMonitor
from repro.sim.probe import probing

#: Default smoke set: one bottleneck golden plus one incast cell — the
#: two scenario shapes that exercise the densest transport fan-in.
DEFAULT_SCENARIOS = ("bottleneck-xmp", "incast-fanin8")

DEFAULT_SRC = "src/repro"

#: Micro-cell sizes: enough events past warmup that free-list noise
#: cannot reach the majority threshold, small enough for a CI smoke.
_MICRO_WARMUP = 20_000
_MICRO_EVENTS = 80_000


def _build_summaries(src: str) -> List[Dict[str, Any]]:
    from repro.lint.core import iter_python_files
    from repro.lint.sem.summary import build_summary

    return [
        build_summary(str(path), path.read_text(encoding="utf-8"))
        for path in iter_python_files([src])
    ]


def _explained(src: str, registry: HotPathRegistry) -> Set[str]:
    from repro.lint.perf.analyzer import explained_hot_functions

    return explained_hot_functions(_build_summaries(src), registry)


# -- micro cells ---------------------------------------------------------


def _micro_schedule_fire(monitor: AllocMonitor) -> int:
    """Mirror of the ``micro_schedule_fire`` bench cell, split so the
    monitor attaches only after a free-list warmup segment."""
    from repro.sim.engine import Simulator

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
    """Mirror of the ``micro_hotpath_fire`` bench cell (self-posting
    chains through the allocation-free ``post()`` path)."""
    from repro.sim.engine import Simulator

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


_MICRO_CELLS = {
    "micro_schedule_fire": _micro_schedule_fire,
    "micro_hotpath_fire": _micro_hotpath_fire,
}


def _run_micro(args: argparse.Namespace) -> int:
    records: List[dict] = []
    ok = True
    for name, cell in _MICRO_CELLS.items():
        monitor = AllocMonitor(trace_all=True)
        try:
            events = cell(monitor)
        finally:
            monitor.close()
        allocators = monitor.allocators()
        if allocators:
            ok = False
        summary = monitor.summary()
        summary["scenario"] = name
        records.append(summary)
        status = (
            f"{len(allocators)} per-event allocator(s): "
            + ", ".join(allocators)
            if allocators
            else "ok"
        )
        if allocators or not args.quiet:
            print(
                f"{name:<28} {status}  [{events} events, "
                f"{monitor.hot_events} traced]"
            )
    _write_out(args, records)
    return 0 if ok else 1


# -- golden scenarios ----------------------------------------------------


def _run_goldens(args: argparse.Namespace) -> int:
    from repro.validate.golden import check_digest, format_diff
    from repro.validate.scenarios import run_scenario, scenario_names

    parser_error = args._parser.error
    known = scenario_names()
    if args.all:
        names = known
    elif args.scenario:
        names = list(args.scenario)
        for name in names:
            if name not in known:
                parser_error(
                    f"unknown scenario {name!r} (known: {', '.join(known)})"
                )
    else:
        names = list(DEFAULT_SCENARIOS)

    registry = HotPathRegistry.load()
    explained = _explained(args.src, registry)

    records: List[dict] = []
    ok = True
    for name in names:
        monitor = AllocMonitor(registry=registry)
        with probing(monitor):
            digest, validator = run_scenario(name)
        unexplained = sorted(set(monitor.allocators()) - explained)
        status: List[str] = []
        if unexplained:
            ok = False
            status.append(
                f"{len(unexplained)} unexplained allocator(s): "
                + ", ".join(unexplained)
            )
        if validator.violations:
            ok = False
            status.append(
                f"{len(validator.violations)} invariant violation(s)"
            )
        if not args.no_goldens:
            differences = check_digest(name, digest)
            if differences:
                ok = False
                status.append("digest mismatch under sanitizer")
                if not args.quiet:
                    print(format_diff(name, differences), file=sys.stderr)
        if not status:
            status.append("ok")
        summary = monitor.summary()
        summary["scenario"] = name
        summary["unexplained"] = unexplained
        for dotted in sorted(monitor.stats):
            records.append(
                {
                    "kind": "function",
                    "scenario": name,
                    "function": dotted,
                    **monitor.stats[dotted],
                }
            )
        records.append(summary)
        if unexplained or not args.quiet:
            print(
                f"{name:<28} {', '.join(status)}  "
                f"[{summary['events']} events, {summary['hot_events']} hot]"
            )
    _write_out(args, records)
    return 0 if ok else 1


def _write_out(args: argparse.Namespace, records: List[dict]) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        if not args.quiet:
            print(f"alloc report: {args.out} ({len(records)} record(s))")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint.perf",
        description=(
            "run golden scenarios under the allocation sanitizer, "
            "cross-check observed allocators against the static "
            "explanation closure, and verify digests stay bit-identical"
        ),
    )
    parser.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="scenario to run (repeatable; default: "
             f"{', '.join(DEFAULT_SCENARIOS)})",
    )
    parser.add_argument("--all", action="store_true",
                        help="run every golden scenario")
    parser.add_argument("--micro", action="store_true",
                        help="instead drive the two engine micro cells "
                             "with every callback traced and fail on any "
                             "per-event allocator")
    parser.add_argument("--src", metavar="DIR", default=DEFAULT_SRC,
                        help="tree to build the static explanation "
                             f"closure from (default: {DEFAULT_SRC})")
    parser.add_argument("--out", metavar="FILE",
                        help="write the JSONL allocation report here")
    parser.add_argument("--no-goldens", action="store_true",
                        help="skip the golden-digest cross-check (for "
                             "trees whose goldens are being re-blessed)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only print failures")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    args._parser = parser
    if args.micro:
        return _run_micro(args)
    return _run_goldens(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())

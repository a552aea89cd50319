"""Sanitizer smoke runner: ``python -m repro.lint.race``.

Runs canonical golden scenarios with the same-instant race sanitizer
active (see :mod:`repro.lint.race.runtime`), then asserts two things:

* **no observed collisions** — no two distinct callbacks rebound the
  same attribute of the same object within one equal-``(time,
  priority)`` batch, and
* **bit-identical digests** — the sanitizer observed without
  perturbing: every scenario digest still matches its checked-in
  golden.

Both must hold for exit code 0; either failure exits 1.  ``--out``
writes the JSONL race report (collision records then one summary line
per scenario; see OBSERVABILITY.md) regardless of outcome, so CI can
upload it as an artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.lint.race.runtime import RaceMonitor
from repro.sim.probe import probing

#: Default smoke set: one bottleneck golden plus one incast cell — the
#: two scenario shapes with the densest same-instant batches.
DEFAULT_SCENARIOS = ("bottleneck-xmp", "incast-fanin8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint.race",
        description=(
            "run golden scenarios under the same-instant race sanitizer "
            "and cross-check digests against the checked-in goldens"
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
    parser.add_argument("--out", metavar="FILE",
                        help="write the JSONL race report here")
    parser.add_argument("--no-goldens", action="store_true",
                        help="skip the golden-digest cross-check (for "
                             "trees whose goldens are being re-blessed)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only print failures")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)

    from repro.validate.golden import check_digest, format_diff
    from repro.validate.scenarios import run_scenario, scenario_names

    known = scenario_names()
    if args.all:
        names = known
    elif args.scenario:
        names = list(args.scenario)
        for name in names:
            if name not in known:
                parser.error(
                    f"unknown scenario {name!r} (known: {', '.join(known)})"
                )
    else:
        names = list(DEFAULT_SCENARIOS)

    records: List[dict] = []
    ok = True
    for name in names:
        with probing(RaceMonitor()) as monitor:
            digest, validator = run_scenario(name)
        status: List[str] = []
        if monitor.collisions:
            ok = False
            status.append(f"{len(monitor.collisions)} collision(s)")
        if validator.violations:
            ok = False
            status.append(f"{len(validator.violations)} invariant violation(s)")
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
        records.extend(monitor.collisions)
        records.append(summary)
        if monitor.collisions or not args.quiet:
            print(
                f"{name:<28} {', '.join(status)}  "
                f"[{summary['events']} events, {summary['batches']} "
                f"same-instant batches]"
            )

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        if not args.quiet:
            print(f"race report: {args.out} ({len(records)} record(s))")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())

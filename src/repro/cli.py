"""Command-line interface: run any of the paper's experiments directly.

Examples::

    python -m repro list
    python -m repro fig4 --beta 4 --time-scale 0.2
    python -m repro fig6 --beta 6
    python -m repro fig7 --beta 5 --threshold 15 --time-scale 0.05
    python -m repro fig1 --scheme dctcp --threshold 10 --interval 1.0
    python -m repro table1 --duration 0.3 --patterns permutation random
    python -m repro jct --duration 1.0
    python -m repro rtt --pattern random
    python -m repro utilization --pattern permutation
    python -m repro validate
    python -m repro validate --bless
    python -m repro lint --list-rules
    python -m repro lint src/repro --format json
    python -m repro table1 --duration 0.02 --validate
    python -m repro profile fattree --duration 0.05
    python -m repro table1 --telemetry telemetry/

Every subcommand prints the same rows/series its benchmark counterpart
asserts on; the CLI exists so a single experiment can be explored (and
its knobs swept) without the pytest machinery.

Every experiment runs through :mod:`repro.runner`: ``--jobs N`` fans the
grid's cells over N worker processes (deterministic — same output as
``--jobs 1``), results are cached on disk under ``--cache-dir`` (default
``~/.cache/repro``) so repeated invocations skip simulation, and
``--no-cache`` forces recomputation.  A ``[runner]`` summary line after
each result reports per-invocation cost; ``--cells`` adds a per-cell
timing table.

``--validate`` runs every cell under the runtime invariant checker
(:mod:`repro.validate`; implies ``--no-cache``), and the ``validate``
subcommand diffs the golden-trace scenarios against their checked-in
digests (``--bless`` regenerates them) — see VALIDATION.md.

``--telemetry DIR`` records one JSONL document per cell (spec
fingerprint, cache tier, event counts, engine hot-spot profile) under
``DIR/runs.jsonl``, and the ``profile`` subcommand runs one experiment
kind under the engine profiler and prints the hot-spot table — see
OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from typing import Any, Callable, Dict, Iterable, NoReturn, Optional, Sequence, Tuple

from repro.experiments.catalog import (
    K,
    PATTERN,
    ROWS,
    SEED,
    Experiment,
    Flag,
    dest_of,
    experiment,
    experiments,
    flag,
)
from repro.experiments.fattree_eval import FatTreeScenario
from repro.runner import (
    Campaign,
    CampaignResult,
    DiskCache,
    RunCache,
    RunSpec,
    default_cache,
)
from repro.runner.registry import BACKEND_PACKET, backend_of
from repro.sim.probe import exported

#: Every subcommand, in the full parser's order.
COMMANDS = ("list", *ROWS, "lint", "validate", "export", "profile")


def _profile_kinds() -> Dict[str, type]:
    """kind -> config class of every packet-engine row: what ``profile`` can run."""
    return {
        row.kind: row.config
        for row in experiments().values()
        if backend_of(row.kind) == BACKEND_PACKET
    }


def _scenario_flags(
    duration: Optional[float], scheme_help: Optional[str] = None
) -> Tuple[Flag, ...]:
    """One fat-tree cell's flags (``export`` and ``profile``)."""
    return (
        flag("--scheme", default="xmp", help=scheme_help),
        flag("--subflows", type=int, default=2),
        PATTERN,
        flag("--duration", type=float, default=duration),
        K,
        SEED,
    )


#: ``profile``'s config flags.  Only what the user gave reaches the
#: kind's config, so their parser defaults are ``None`` ("not given").
PROFILE_FLAGS = tuple(
    (option, {**kwargs, "default": None})
    for option, kwargs in _scenario_flags(
        duration=None, scheme_help="fattree scheme (fattree kind only)")
)


def _usage_error(message: str) -> "NoReturn":
    """Exit 2 with a one-line message, as argparse does for a bad flag."""
    print(f"repro: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _add_flags(p: argparse.ArgumentParser, flags: Iterable[Flag]) -> None:
    for option, kwargs in flags:
        p.add_argument(option, **kwargs)


def _add_runner_options(p: argparse.ArgumentParser) -> None:
    """The campaign-runner knobs shared by every experiment subcommand."""
    group = p.add_argument_group("runner")
    group.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for independent cells "
                            "(deterministic: output equals --jobs 1)")
    group.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="on-disk run cache location "
                            "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    group.add_argument("--no-cache", action="store_true",
                       help="ignore cached runs and recompute everything")
    group.add_argument("--cells", action="store_true",
                       help="print the per-cell timing table")
    group.add_argument("--validate", action="store_true",
                       help="run every cell under the runtime invariant "
                            "checker (implies --no-cache; fails on any "
                            "violation)")
    group.add_argument("--telemetry", default=None, metavar="DIR",
                       help="append one JSONL telemetry record per cell "
                            "to DIR/runs.jsonl (implies profiling of "
                            "simulated cells; see OBSERVABILITY.md)")


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser.  Given an experiment row's name it holds only
    that row's subcommand, so no other row is built; its usage still
    names every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce experiments from the XMP paper (CoNEXT'13).",
    )
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    rows = experiments().values() if command is None else [experiment(command)]
    if command is None:
        sub.add_parser("list", help="list available experiments and cell counts")

    for row in rows:
        p = sub.add_parser(row.name, help=row.help)
        _add_flags(p, row.flags)
        if row.name == "fluid":
            # Not a row flag: a crosscheck compares raw fluid and packet
            # runs, it is not a campaign over the row's cells.
            p.add_argument(
                "--crosscheck", nargs="?", const="all", default=None,
                choices=("bottleneck", "fattree", "all"), metavar="TOPO",
                help="cross-validate fluid vs packet on the golden "
                     "scenarios instead of running one cell "
                     "(optionally restrict to one topology)")
        _add_runner_options(p)
    if command is not None:
        return parser

    p = sub.add_parser(
        "lint",
        help="run simlint, the determinism & simulation-safety linter "
             "(see LINTING.md); extra args pass through to repro.lint",
    )
    p.add_argument("lint_args", nargs=argparse.REMAINDER, metavar="ARGS",
                   help="arguments forwarded to python -m repro.lint")

    p = sub.add_parser("validate", help=TOOLS["validate"][1])
    p.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                   help="scenario names (default: all; see "
                        "repro.validate.scenarios)")
    p.add_argument("--bless", action="store_true",
                   help="regenerate the checked-in golden digests from "
                        "this run instead of diffing against them")

    p = sub.add_parser("export", help=TOOLS["export"][1])
    p.add_argument("directory", help="output directory")
    _add_flags(p, _scenario_flags(duration=0.4))
    _add_runner_options(p)

    p = sub.add_parser("profile", help=TOOLS["profile"][1])
    p.add_argument("experiment", choices=tuple(_profile_kinds()),
                   help="registered experiment kind to profile")
    _add_flags(p, PROFILE_FLAGS)
    p.add_argument("--top", type=int, default=12, metavar="N",
                   help="hot-spot table rows (default 12)")
    p.add_argument("--telemetry", default="telemetry", metavar="DIR",
                   help="JSONL output directory (default: ./telemetry)")
    return parser


def _campaign(args: argparse.Namespace) -> Campaign:
    """The campaign the runner flags describe.

    The CLI attaches a disk tier (unlike library defaults, which stay
    memory-only unless ``$REPRO_CACHE_DIR`` is set): a repeated
    invocation with a warm cache skips simulation entirely.

    ``--validate`` forces recomputation: cached results were produced by
    *unvalidated* runs, so replaying them would check nothing.
    """
    telemetry = None
    if args.telemetry:
        from repro.obs.telemetry import Telemetry

        telemetry = Telemetry(args.telemetry)
    if args.validate or args.no_cache:
        return Campaign(args.jobs, use_cache=False, telemetry=telemetry)
    cache = RunCache(memory=default_cache().memory, disk=DiskCache(args.cache_dir))
    return Campaign(args.jobs, cache, telemetry=telemetry)


def _reports(campaign: CampaignResult, kind: str) -> list:
    """The ``kind`` probe's report from every cell that ran under one."""
    probed = (result.metrics.probes for result in campaign.results)
    return [probes[kind] for probes in probed if kind in probes]


def _epilogue(args: argparse.Namespace, campaign: CampaignResult) -> str:
    """The ``[runner]`` summary (and optional per-cell table) for a run."""
    lines = [f"[runner] {campaign.summary()}"]
    if args.validate:
        checks = sum(r.metrics.invariant_checks for r in campaign.results)
        lines.append(
            f"[validate] {len(campaign.results)} cells passed "
            f"({checks} invariant checks)"
        )
    # The sanitizers' verdicts, when REPRO_RACE / REPRO_ALLOC put them on.
    race = _reports(campaign, "race")
    if race:
        events, batches, collisions = (
            sum(report[key] for report in race)
            for key in ("events", "batches", "collisions")
        )
        lines.append(
            f"[race] {len(race)} cells, {events} events, "
            f"{batches} same-instant batches, {collisions} collisions"
        )
    alloc = _reports(campaign, "alloc")
    if alloc:
        hot = sum(report["hot_events"] for report in alloc)
        allocators = sorted({name for report in alloc for name in report["allocators"]})
        lines.append(
            f"[alloc] {len(alloc)} cells, {hot} hot events, "
            f"allocators: {', '.join(allocators) or 'none'}"
        )
    if args.cells:
        lines.append(campaign.format_cells())
    if args.telemetry:
        from repro.obs.telemetry import RUNS_FILENAME

        lines.append(f"[telemetry] appended to {args.telemetry}/{RUNS_FILENAME}")
    return "\n" + "\n".join(lines)


def _from_flags(config: type, args: argparse.Namespace) -> Any:
    """``config`` built from the namespace attributes that are its fields."""
    names = {field.name for field in dataclasses.fields(config)}
    return config(**{k: v for k, v in vars(args).items() if k in names})


def _run_experiment(row: Experiment, args: argparse.Namespace) -> str:
    """The one path every experiment row takes: flags -> grid -> view."""
    if getattr(args, "crosscheck", None):
        return _run_crosscheck(row, args)
    try:
        # The configs validate themselves, sweep axes included.
        base, axes = row.parse(vars(args))
        configs = row.grid(base, **axes)
    except ValueError as error:
        _usage_error(str(error))
    view, outcome = row.run(configs, _campaign(args))
    return view.format() + _epilogue(args, outcome)


def _run_crosscheck(row: Experiment, args: argparse.Namespace) -> str:
    """The golden scenarios, fixed but for a shorter ``--duration``: any
    other row flag off its default is a usage error, as is a horizon the
    row's config rejects."""
    for option, kwargs in row.flags:
        dest = dest_of((option, kwargs))
        if dest != "duration" and getattr(args, dest) != kwargs.get("default"):
            _usage_error(f"{option} does not apply to --crosscheck")
    if args.duration is not None:
        try:
            row.config(duration=args.duration)
        except ValueError as error:
            _usage_error(str(error))
    from repro.fluid.crosscheck import run_crosschecks

    checks = run_crosschecks(args.crosscheck, duration=args.duration)
    lines = [check.format() for check in checks]
    failed = [check for check in checks if not check.ok]
    lines.append(f"crosscheck: {len(checks) - len(failed)}/{len(checks)} ok")
    if failed:
        raise SystemExit("\n".join(lines) + "\ncrosscheck: FAILED")
    return "\n".join(lines)


def _run_export(args: argparse.Namespace) -> str:
    from repro.experiments.export import (
        export_campaign_metrics,
        export_fattree_result,
    )

    scenario = _from_flags(FatTreeScenario, args)
    campaign = _campaign(args).run([RunSpec("fattree", scenario)])
    result = campaign.values[0]
    out = export_fattree_result(result, args.directory)
    export_campaign_metrics(campaign, args.directory)
    return (
        f"wrote {out}/summary.json, flows.csv, jct.csv, rtt_samples.csv, "
        f"links.csv, cells.csv  (mean goodput "
        f"{result.mean_goodput_bps() / 1e6:.1f} Mbps)"
        + _epilogue(args, campaign)
    )


def _run_profile(args: argparse.Namespace) -> str:
    """Run one experiment kind under the engine profiler, no cache.

    Prints the per-component hot-spot table and heap health, and appends
    the cell's telemetry record (the same JSONL document ``--telemetry``
    produces for any experiment) under the output directory.
    """
    from repro.obs.telemetry import Telemetry

    kind = args.experiment
    # The row's own flag -> config split: what is left over names no field.
    config, unknown = Experiment(
        kind, "", kind, _profile_kinds()[kind], PROFILE_FLAGS
    ).parse(vars(args))
    if unknown:
        _usage_error(
            f"profile {kind}: no such setting: "
            + ", ".join("--" + dest for dest in sorted(unknown))
        )
    if args.duration is None and hasattr(config, "duration"):
        config = dataclasses.replace(config, duration=0.1)
    telemetry = Telemetry(args.telemetry)
    # No cache: profiling a cache hit would measure nothing.  Campaign
    # exports $REPRO_PROFILE for the duration, so the cell runs profiled.
    campaign = Campaign(use_cache=False, telemetry=telemetry).run(
        [RunSpec(args.experiment, config)]
    )
    result = campaign.results[0]
    profile = result.metrics.profile
    if profile is None:  # pragma: no cover - defensive; execute() profiles
        return "profile: no profile captured"
    lines = [f"profile: {result.spec.label()}", "", profile.format(args.top)]
    sim_time = getattr(config, "duration", None)
    wall = result.metrics.wall_time_s
    if sim_time:
        lines.append(
            f"wall/sim: {wall:.2f}s wall for {sim_time:g}s simulated "
            f"({wall / sim_time:.1f}x real time)"
        )
    lines.append(f"[telemetry] appended to {telemetry.path}")
    return "\n".join(lines)


def _run_validate(args: argparse.Namespace) -> str:
    from repro.validate.scenarios import run_golden_suite

    report, ok = run_golden_suite(
        names=args.scenarios or None, bless=args.bless
    )
    if not ok:
        # Print the report on the way out; main() turns this into exit 1.
        raise SystemExit(report + "\nvalidate: FAILED")
    return report + ("\nvalidate: blessed" if args.bless else "\nvalidate: OK")


#: The subcommands that are not experiment rows: name -> (runner, help).
TOOLS: Dict[str, Tuple[Callable[[argparse.Namespace], str], str]] = {
    "export": (_run_export,
               "run one fat-tree scenario and dump JSON/CSV artifacts"),
    "validate": (_run_validate,
                 "run the golden-trace scenarios under the invariant checker "
                 "(--bless regenerates goldens)"),
    "profile": (_run_profile,
                "run one experiment kind under the engine profiler: hot-spot "
                "table + JSONL telemetry (see OBSERVABILITY.md)"),
}


def _list_text() -> str:
    """Every subcommand with its cell count — the useful upper bound for
    ``--jobs`` — computed from each row's default grid."""
    from repro.validate.scenarios import scenario_names

    entries = [(row.name, len(row.grid()), row.help) for row in experiments().values()]
    tool_cells = {"export": 1, "validate": len(scenario_names()), "profile": 1}
    entries += [(name, tool_cells[name], text) for name, (_, text) in TOOLS.items()]
    lines = [
        "available experiments (cells = independent simulations; size --jobs accordingly):"
    ]
    for name, cells, text in entries:
        cell_word = "cell " if cells == 1 else "cells"
        lines.append(f"  {name:<12} {cells:>2} {cell_word}  {text}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    if argv[:1] == ["--list"]:
        print(_list_text())
        return 0
    # A row's own command builds only its own row (and imports its driver).
    args = build_parser(argv[0] if argv[:1] and argv[0] in ROWS else None).parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        _usage_error(f"--jobs must be at least 1, got {args.jobs}")
    if args.command == "list":
        print(_list_text())
        return 0
    if args.command == "lint":
        from repro.lint.cli import main as lint_main

        # argparse.REMAINDER keeps a leading "--" separator; drop it.
        lint_args = [a for a in args.lint_args if a != "--"]
        return lint_main(lint_args)
    # --validate reaches pool workers through the environment; scoped to
    # this one command so the calling process is left as it was found.
    validating = getattr(args, "validate", False)
    with exported("REPRO_VALIDATE") if validating else contextlib.nullcontext():
        if args.command in ROWS:
            print(_run_experiment(experiment(args.command), args))
        else:
            print(TOOLS[args.command][0](args))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

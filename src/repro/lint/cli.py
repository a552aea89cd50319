"""The lint command line: ``python -m repro.lint`` / ``repro lint``.

Exit codes: 0 clean, 1 findings remain, 2 usage error.  ``--fix``
applies the mechanically safe fixes in place and reports what is left.

Every run is the one pass: the per-file rules (SIM009, SIM010) and the
whole-program join over one set of per-file summaries
(:mod:`repro.lint.sem`) — priority tiers (SIM018, :mod:`repro.lint.race`)
and hot-path cost (SIM019/SIM020, :mod:`repro.lint.perf`).  ``--select``/``--ignore`` narrow what is
reported, never what is analyzed: cross-module properties are only
meaningful on whole trees.  A retired code is a usage error.  ``--format sarif`` emits SARIF 2.1.0 for CI
upload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence, Set

from repro.lint.core import Analyzer, Finding, iter_python_files
from repro.lint.fixes import fix_file
from repro.lint.registry import catalog, known_codes, syntactic_rules
from repro.lint.sarif import findings_to_sarif
from repro.lint.sem.project import ProjectAnalyzer

DEFAULT_TARGET = "src/repro"


def _parse_codes(raw: str, parser: argparse.ArgumentParser) -> List[str]:
    known = known_codes()
    codes = [token.strip().upper() for token in raw.split(",") if token.strip()]
    for code in codes:
        if code not in known:
            parser.error(
                f"unknown rule code {code!r} (known: {', '.join(sorted(known))})"
            )
    return codes


def _selected_codes(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> Set[str]:
    selected = set(known_codes())
    if args.select:
        selected = set(_parse_codes(args.select, parser))
    if args.ignore:
        selected -= set(_parse_codes(args.ignore, parser))
    return selected


def _rule_listing() -> str:
    lines = ["simlint rules (see LINTING.md for the full catalog):"]
    for entry in catalog():
        fix = " [--fix]" if entry.fixable else ""
        lines.append(
            f"  {entry.code}  {entry.name:<26} "
            f"[{entry.kind}/{entry.severity.value}]{fix}"
        )
        lines.append(f"         {entry.rationale}")
    return "\n".join(lines)


def _rule_listing_json() -> str:
    return json.dumps(
        {
            "rules": [
                {
                    "code": entry.code,
                    "name": entry.name,
                    "kind": entry.kind,
                    "severity": entry.severity.value,
                    "fixable": entry.fixable,
                    "rationale": entry.rationale,
                }
                for entry in catalog()
            ]
        },
        indent=2,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=(
            "simlint: AST-based determinism & simulation-safety linter "
            "for the XMP reproduction (pure stdlib; see LINTING.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help=f"files or directories to lint (default: {DEFAULT_TARGET})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument("--select", metavar="CODES",
                        help="comma-separated rule codes to run exclusively")
    parser.add_argument("--ignore", metavar="CODES",
                        help="comma-separated rule codes to skip")
    parser.add_argument("--fix", action="store_true",
                        help="apply mechanically safe fixes in place")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the summary line")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.list_rules:
        if args.format == "sarif":
            parser.error("--list-rules supports text or json, not sarif")
        print(
            _rule_listing_json() if args.format == "json" else _rule_listing()
        )
        return 0
    paths = list(args.paths)
    if not paths:
        if os.path.isdir(DEFAULT_TARGET):
            paths = [DEFAULT_TARGET]
        else:
            parser.error(
                f"no paths given and default target {DEFAULT_TARGET!r} "
                "does not exist here"
            )
    selected = _selected_codes(args, parser)
    if not selected:
        parser.error("--select/--ignore left no rules to run")
    analyzer = Analyzer(
        rules=[rule for rule in syntactic_rules() if rule.code in selected]
    )

    files = list(iter_python_files(paths))
    findings: List[Finding] = []
    fixed_total = 0
    for path in files:
        if args.fix:
            applied, remaining = fix_file(analyzer, path)
            fixed_total += applied
            findings.extend(remaining)
        else:
            findings.extend(analyzer.lint_file(path))

    project = ProjectAnalyzer()
    # A syntax error (SIM000) is already in the per-file findings.
    findings.extend(
        f for f in project.analyze_paths(paths) if f.code in selected
    )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))

    if args.format == "json":
        payload = {
            "checked_files": len(files),
            "fixed": fixed_total,
            "findings": [f.to_json() for f in findings],
            "sem": project.stats.as_dict(),
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "sarif":
        print(json.dumps(findings_to_sarif(findings), indent=2))
    else:
        for finding in findings:
            print(finding.format())
        if not args.quiet:
            summary = (
                f"simlint: {len(findings)} finding(s) in {len(files)} file(s)"
            )
            if args.fix:
                summary += f", {fixed_total} fixed"
            print(summary, file=sys.stderr)
    return 1 if findings else 0


__all__ = ["build_parser", "main"]

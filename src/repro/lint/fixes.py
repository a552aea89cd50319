"""Applying the mechanically safe fixes rules attach to findings.

Only rules whose rewrite cannot change behavior *except in the intended
direction* attach a :class:`~repro.lint.core.Fix` (see LINTING.md for
the exact scope).  Every fix is a single-line span replacement guarded
by the expected current text, applied right-to-left so earlier edits
never invalidate later spans.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Tuple

from repro.lint.core import Analyzer, Finding


def apply_fixes(source: str, findings: Iterable[Finding]) -> Tuple[str, int]:
    """Apply every finding's fix to ``source``; returns (text, applied).

    A fix whose span no longer holds its expected text is skipped rather
    than guessed at.
    """
    fixes = [f.fix for f in findings if f.fix is not None]
    if not fixes:
        return source, 0
    lines: List[str] = source.splitlines(keepends=True)
    applied = 0
    for fix in sorted(fixes, key=lambda f: (f.lineno, f.col_start), reverse=True):
        if not 1 <= fix.lineno <= len(lines):
            continue
        line = lines[fix.lineno - 1]
        if line[fix.col_start : fix.col_end] != fix.expected:
            continue
        lines[fix.lineno - 1] = (
            line[: fix.col_start] + fix.replacement + line[fix.col_end :]
        )
        applied += 1
    return "".join(lines), applied


def fix_file(analyzer: Analyzer, path: "str | Path") -> Tuple[int, List[Finding]]:
    """Fix one file in place; returns (edits applied, remaining findings).

    Re-lints after rewriting, both to report what is left and to pick up
    any finding whose fix was skipped as stale.
    """
    target = Path(path)
    source = target.read_text(encoding="utf-8")
    findings = analyzer.lint_source(source, path=target)
    fixed, applied = apply_fixes(source, findings)
    if applied:
        target.write_text(fixed, encoding="utf-8")
        findings = analyzer.lint_source(fixed, path=target)
    return applied, findings


__all__ = ["apply_fixes", "fix_file"]

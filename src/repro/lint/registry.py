"""The single rule catalog: the 5 live codes in SIM009–SIM020 in one table.

Eighteen codes are retired and never reused — SIM001–SIM008,
SIM011–SIM017 and SIM021–SIM023; LINTING.md's audit table names the
run-time check that catches what each rejected.  The
per-file rules (SIM009, SIM010) are :class:`~repro.lint.core.Rule`
classes and describe themselves; the whole-program rules
(SIM018–SIM020) are findings of the join over the per-file summaries
(:mod:`repro.lint.race.analyzer`, :mod:`repro.lint.perf.analyzer`),
not per-node rules, so their catalog rows are spelled out here in
:data:`PROJECT_RULES`.  The CLI
(``--list-rules``, ``--select``/``--ignore``), the SARIF driver, the
analyzers' severities, the tests and LINTING.md all build from this
module:

* :func:`syntactic_rules` — fresh rule instances, what
  :class:`~repro.lint.core.Analyzer` runs per file;
* :func:`known_codes` — every valid code for ``--select``/``--ignore``;
* :func:`catalog` — one uniform entry per code, in code order;
* :data:`PROJECT_SEVERITIES` — severity per whole-program code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.lint.core import Rule, Severity
from repro.lint.rules import RULE_CLASSES, all_rules


@dataclass(frozen=True)
class CatalogEntry:
    """One rule's catalog row, whichever analysis implements it."""

    code: str
    name: str
    severity: Severity
    rationale: str
    #: Which analysis reports it: "syntactic" (per-file Rule), "race"
    #: (same-instant ordering) or "perf" (hot-path cost).
    kind: str
    #: Whether ``--fix`` can rewrite this rule's findings.
    fixable: bool = False


PROJECT_RULES: Tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "SIM018", "unnamed-priority-tier", Severity.WARNING,
        "a periodic (self-rescheduling) callback is scheduled at the "
        "default or a bare-literal priority: its ticks walk onto "
        "instants shared with model events, where ordering must be "
        "named via repro.sim.priorities — the PR 4 sampler-bug shape",
        "race",
    ),
    CatalogEntry(
        "SIM019", "hot-path-allocation", Severity.ERROR,
        "An allocation site (constructor call, display, comprehension, "
        "f-string, str concat, lambda/closure) inside a function "
        "registered in hotpaths.toml; PR 6's allocation-free fast "
        "paths regress silently otherwise.  Waive a deliberate site "
        "with `# simperf: allow-alloc(<reason>)`.",
        "perf",
    ),
    CatalogEntry(
        "SIM020", "unhoisted-attr-chain", Severity.WARNING,
        "An attribute chain two or more hops deep resolved repeatedly "
        "inside a loop of a hot function; pre-bind it to a local "
        "so each iteration pays one LOAD_FAST.",
        "perf",
    ),
)

#: Severity per whole-program code, for the analyzers that emit them.
PROJECT_SEVERITIES: Dict[str, Severity] = {
    entry.code: entry.severity for entry in PROJECT_RULES
}


def syntactic_rules() -> List[Rule]:
    """Fresh instances of every per-file rule, in code order."""
    return all_rules()


def catalog() -> List[CatalogEntry]:
    """All rules — per-file and whole-program — in code order."""
    entries = [
        CatalogEntry(
            code=cls.code,
            name=cls.name,
            severity=cls.severity,
            rationale=cls.rationale,
            kind="syntactic",
            fixable=cls.fixable,
        )
        for cls in RULE_CLASSES
    ]
    entries.extend(PROJECT_RULES)
    entries.sort(key=lambda entry: entry.code)
    return entries


def known_codes() -> FrozenSet[str]:
    """Every rule code the CLI accepts."""
    return frozenset(entry.code for entry in catalog())


__all__ = [
    "CatalogEntry",
    "PROJECT_RULES",
    "PROJECT_SEVERITIES",
    "catalog",
    "known_codes",
    "syntactic_rules",
]

"""simlint — AST-based determinism & simulation-safety linter.

Static counterpart to the runtime invariant checker
(:mod:`repro.validate`): where the validator catches a hazard *when it
fires*, simlint rejects the code shapes that introduce such hazards
before they ever run — unseeded randomness, wall-clock reads in model
code, float-time equality, raw unit literals, set-order-dependent
scheduling, mutable defaults, pickle-unsafe members and swallowed
exceptions.

On top of the per-file rules sits the whole-program join over one set
of per-file summaries, run on every invocation: unit-dimension dataflow
against a declared sink registry (SIM011/SIM012), seed provenance
(SIM013), observer-hook conformance (SIM014) and event-handler
reachability (SIM015) in :mod:`repro.lint.sem`; priority tiers of
periodic callbacks (SIM018) in :mod:`repro.lint.race`; hot-path cost
against ``hotpaths.toml`` (SIM019/SIM020) in :mod:`repro.lint.perf`.
The two runtime sanitizers those packages carry run over the golden
scenarios in :mod:`repro.lint.smoke`, which decides at run time what the
seven retired rules (LINTING.md has the audit) tried to guess.

Usage::

    python -m repro.lint [PATH ...]      # the one pass; default src/repro
    python -m repro lint -- --fix src    # via the main CLI
    python -m repro.lint.smoke           # both sanitizers on the goldens
    pytest -m lint                       # the self-check suite

Rule catalog, suppression syntax (``# simlint: disable=SIM001``) and
``--fix`` scope are documented in LINTING.md.  Pure stdlib by design:
unlike ruff, simlint runs anywhere the simulator runs.
"""

from repro.lint.core import (
    Analyzer,
    FileContext,
    Finding,
    Fix,
    Rule,
    Severity,
    Suppressions,
    iter_python_files,
)
from repro.lint.fixes import apply_fixes, ensure_units_imports, fix_file
from repro.lint.registry import catalog, known_codes, syntactic_rules
from repro.lint.rules import RULE_CLASSES, all_rules

__all__ = [
    "Analyzer",
    "FileContext",
    "Finding",
    "Fix",
    "Rule",
    "RULE_CLASSES",
    "Severity",
    "Suppressions",
    "all_rules",
    "apply_fixes",
    "catalog",
    "ensure_units_imports",
    "fix_file",
    "iter_python_files",
    "known_codes",
    "syntactic_rules",
]

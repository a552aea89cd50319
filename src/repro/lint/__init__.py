"""simlint — AST-based determinism & simulation-safety linter.

Static counterpart to the runtime invariant checker
(:mod:`repro.validate`): where the validator catches a hazard *when it
fires*, simlint rejects the code shapes that introduce such hazards
before they ever run — unseeded randomness, wall-clock reads in model
code, float-time equality, pickle-unsafe members and swallowed
exceptions.

On top of the per-file rules sits the whole-program join over one set
of per-file summaries, run on every invocation: unit-unsafe arithmetic
(SIM012) and seed provenance (SIM013) in :mod:`repro.lint.sem`; priority
tiers of periodic callbacks (SIM018) in :mod:`repro.lint.race`; hot-path
cost against ``hotpaths.toml`` (SIM019/SIM020) in :mod:`repro.lint.perf`.
The two runtime sanitizers those packages carry run over the golden
scenarios in :mod:`repro.lint.smoke`.  Every rule kept has a planted
hazard that only it catches; LINTING.md's audit has the measurement and
the thirteen retired codes.

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
from repro.lint.fixes import apply_fixes, fix_file
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
    "fix_file",
    "iter_python_files",
    "known_codes",
    "syntactic_rules",
]

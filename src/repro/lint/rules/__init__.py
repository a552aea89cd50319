"""The simlint rule catalog.

One :class:`~repro.lint.core.Rule` subclass per per-file SIMxxx code
(retired codes are never reused); see
LINTING.md for the catalog with rationale and the audit behind it.  :func:`all_rules` is the
single registry the analyzer, CLI and docs build from.
"""

from __future__ import annotations

from typing import List, Tuple, Type

from repro.lint.core import Rule
from repro.lint.rules.drivers import PickleUnsafeMemberRule
from repro.lint.rules.structure import SwallowedExceptionRule

RULE_CLASSES: Tuple[Type[Rule], ...] = (
    PickleUnsafeMemberRule,  # SIM009
    SwallowedExceptionRule,  # SIM010
)


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in code order."""
    return [cls() for cls in RULE_CLASSES]


__all__ = ["RULE_CLASSES", "all_rules"]

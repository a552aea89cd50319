"""Numeric hygiene: float-time equality (SIM003).

Simulation time is a float in seconds.  Exact ``==`` on derived times is
only stable while nobody reorders an arithmetic expression; the engine
guarantees deterministic *ordering* via ``(time, priority, seq)`` tuples
precisely so model code never needs float equality.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import FileContext, Finding, Rule, Severity

#: Identifiers (variable names / attribute names) treated as sim-time values.
TIME_NAMES = frozenset(
    {
        "now",
        "_now",
        "deadline",
        "_deadline",
        "expiry",
        "_expiry",
        "time",
        "_time",
        "start_time",
        "end_time",
        "finish_time",
        "arrival_time",
        "departure_time",
        "rtt",
        "srtt",
        "base_rtt",
    }
)


def time_like(expr: ast.expr) -> bool:
    """Whether an expression reads like a simulation-time value."""
    if isinstance(expr, ast.Name):
        return expr.id in TIME_NAMES
    if isinstance(expr, ast.Attribute):
        return expr.attr in TIME_NAMES
    return False


class FloatTimeEqualityRule(Rule):
    """SIM003: no ``==`` / ``!=`` between sim-time expressions."""

    code = "SIM003"
    name = "float-time-equality"
    severity = Severity.WARNING
    rationale = (
        "exact float equality on derived times breaks under any "
        "re-association; compare with <=/>= or an explicit tolerance"
    )
    node_types = (ast.Compare,)
    # Tests deliberately assert exact replayed times; that is the
    # determinism claim itself, not a hazard.
    excluded_path_parts = ("tests/", "benchmarks/")

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Compare)
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            if isinstance(op, (ast.Eq, ast.NotEq)):
                operands = (left, right)
                if any(time_like(o) for o in operands) and not any(
                    isinstance(o, ast.Constant) and o.value is None
                    for o in operands
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "exact ==/!= on a simulation-time float; use an "
                        "ordering comparison or an explicit tolerance",
                    )
            left = right

"""Driver-shape rule: pickle safety (SIM009).

:class:`~repro.runner.spec.RunSpec` configs and results cross process
boundaries pickled, so a lambda or local closure stored on one of those
classes fails only when someone first passes ``--jobs 4``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.core import FileContext, Finding, Rule, Severity

#: Class names whose instances travel through RunSpec pickling.
_PICKLED_CLASS_RE = re.compile(r"(Config|Scenario|Spec|Result)$")


class PickleUnsafeMemberRule(Rule):
    """SIM009: no lambdas / local closures stored on RunSpec-reachable classes."""

    code = "SIM009"
    name = "pickle-unsafe-member"
    severity = Severity.ERROR
    rationale = (
        "configs and results cross worker-process boundaries pickled; a "
        "stored lambda or local closure only fails under --jobs > 1"
    )
    node_types = (ast.Assign, ast.AnnAssign)
    restrict_to_path_parts = ("repro/experiments/", "repro/runner/")

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, (ast.Assign, ast.AnnAssign))
        value = node.value
        if value is None:
            return
        owner = self._pickled_class(node, ctx)
        if owner is None:
            return
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        class_level = ctx.parent(node) is owner
        stores_member = any(
            (isinstance(t, ast.Name) and class_level)
            or (
                isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
            )
            for t in targets
        )
        if not stores_member:
            return
        if isinstance(value, ast.Lambda):
            yield self.finding(
                ctx,
                value,
                f"lambda stored on {owner.name} cannot be pickled across "
                "worker processes; use a module-level function or "
                "functools.partial",
            )
        elif isinstance(value, ast.Name) and self._is_local_function(
            value.id, node, ctx
        ):
            yield self.finding(
                ctx,
                value,
                f"locally defined function {value.id}() stored on "
                f"{owner.name} cannot be pickled across worker processes; "
                "move it to module level",
            )

    def _pickled_class(
        self, node: ast.AST, ctx: FileContext
    ) -> "ast.ClassDef | None":
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                if _PICKLED_CLASS_RE.search(ancestor.name):
                    return ancestor
                return None
        return None

    def _is_local_function(
        self, name: str, node: ast.AST, ctx: FileContext
    ) -> bool:
        """Whether ``name`` is a def nested in the enclosing function."""
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return any(
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name == name
                    for stmt in ast.walk(ancestor)
                    if stmt is not ancestor
                )
        return False

"""Structural safety: swallowed errors (SIM010).

A bare ``except:`` (or a broad handler that only ``pass``es) in the
engine or runner can swallow an ``InvariantError`` or a worker crash,
converting a loud determinism violation into silently wrong curves.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.core import FileContext, Finding, Fix, Rule, Severity


def _broad_handler(type_node: Optional[ast.expr]) -> bool:
    """Bare, ``Exception`` or ``BaseException`` (possibly inside a tuple)."""
    if type_node is None:
        return True
    if isinstance(type_node, ast.Name):
        return type_node.id in ("Exception", "BaseException")
    if isinstance(type_node, ast.Attribute):
        return type_node.attr in ("Exception", "BaseException")
    if isinstance(type_node, ast.Tuple):
        return any(_broad_handler(elt) for elt in type_node.elts)
    return False


class SwallowedExceptionRule(Rule):
    """SIM010: no bare ``except:`` and no broad handler that only passes."""

    code = "SIM010"
    name = "swallowed-exception"
    severity = Severity.ERROR
    rationale = (
        "a bare/broad silent handler can eat InvariantError or a worker "
        "crash, turning a loud violation into silently wrong results"
    )
    fixable = True
    node_types = (ast.ExceptHandler,)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            yield self.finding(
                ctx,
                node,
                "bare except: also catches KeyboardInterrupt/SystemExit; "
                "name the exception (at least 'except Exception:')",
                fix=self._except_fix(node, ctx),
            )
            return
        only_pass = len(node.body) == 1 and isinstance(node.body[0], ast.Pass)
        if only_pass and _broad_handler(node.type):
            yield self.finding(
                ctx,
                node,
                "broad exception handler whose body is only 'pass' swallows "
                "every error silently; narrow the type or handle it",
            )

    def _except_fix(self, node: ast.ExceptHandler, ctx: FileContext) -> "Fix | None":
        """Rewrite ``except:`` to ``except Exception:`` on its own line."""
        line = ctx.line_text(node.lineno)
        prefix = line[node.col_offset :]
        if not prefix.startswith("except"):
            return None
        colon = prefix.find(":")
        if colon < 0 or prefix[len("except") : colon].strip():
            return None
        return Fix(
            lineno=node.lineno,
            col_start=node.col_offset,
            col_end=node.col_offset + colon + 1,
            expected=prefix[: colon + 1],
            replacement="except Exception:",
        )

"""simlint core: findings, rules, suppressions and the one-pass dispatcher.

The linter is a thin framework around :mod:`ast`:

* a :class:`Rule` declares which node types it wants to see and yields
  :class:`Finding` objects from :meth:`Rule.visit`;
* the :class:`Analyzer` parses each file once, links parent pointers,
  and walks the tree a single time, dispatching every node to the rules
  registered for its type;
* ``# simlint: disable=SIM001[,SIM002|all]`` on a finding's line
  suppresses it after the fact, so rules never need to know about
  suppressions.

Everything is pure stdlib by design: unlike ruff, simlint must run on
any machine that can run the simulator (see ``scripts/check.sh``).
"""

from __future__ import annotations

import ast
import enum
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

_PARENT_ATTR = "_simlint_parent"


class Severity(enum.Enum):
    """How bad a finding is; both fail the lint, the label is for triage."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Fix:
    """A mechanically safe, single-line source edit.

    ``expected`` pins the exact text currently occupying the span;
    :func:`repro.lint.fixes.apply_fixes` refuses the edit if the file
    has drifted, so a stale fix can never corrupt a line.
    """

    lineno: int  # 1-based
    col_start: int  # 0-based, inclusive
    col_end: int  # 0-based, exclusive
    expected: str
    replacement: str


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int  # 0-based
    code: str
    message: str
    severity: Severity = Severity.ERROR
    fix: Optional[Fix] = None

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col + 1,
            "code": self.code,
            "message": self.message,
            "severity": self.severity.value,
            "fixable": self.fix is not None,
        }


class FileContext:
    """Per-file state handed to every rule visit."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree

    def line_text(self, lineno: int) -> str:
        """The raw source line (1-based), empty string past EOF."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def segment(self, node: ast.AST) -> Optional[str]:
        """Exact source text of a node, or ``None`` if unavailable."""
        return ast.get_source_segment(self.source, node)

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return getattr(node, _PARENT_ATTR, None)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Parents from the immediate enclosing node up to the Module."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)


class Rule:
    """Base class for simlint rules.

    Subclasses set the class attributes and implement :meth:`visit`.
    Path scoping is declarative: ``allowed_path_suffixes`` are files the
    rule deliberately ignores (e.g. the one module allowed to construct
    RNGs), ``excluded_path_parts`` are directory fragments where the
    rule does not apply (benchmarks measure wall time on purpose), and a
    non-empty ``restrict_to_path_parts`` limits the rule to matching
    paths (driver-shape rules only make sense for experiment drivers).
    """

    code: str = "SIM000"
    name: str = "base-rule"
    severity: Severity = Severity.ERROR
    #: One-line rationale shown by ``--list-rules`` and used in docs.
    rationale: str = ""
    #: Whether the rule attaches mechanically safe fixes (``--fix``).
    fixable: bool = False
    node_types: Tuple[Type[ast.AST], ...] = ()
    allowed_path_suffixes: Tuple[str, ...] = ()
    excluded_path_parts: Tuple[str, ...] = ()
    restrict_to_path_parts: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        if any(path.endswith(suffix) for suffix in self.allowed_path_suffixes):
            return False
        if any(part in path for part in self.excluded_path_parts):
            return False
        if self.restrict_to_path_parts:
            return any(part in path for part in self.restrict_to_path_parts)
        return True

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        fix: Optional[Fix] = None,
    ) -> Finding:
        """Build a finding anchored at ``node`` for this rule."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
            severity=self.severity,
            fix=fix,
        )


# ---------------------------------------------------------------------------
# Suppressions: "# simlint: disable=SIM001,SIM002" or "disable=all",
# on the same line as the finding.
# ---------------------------------------------------------------------------

_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9_,\s]+)")


class Suppressions:
    """Per-line suppression sets parsed from the raw source."""

    def __init__(self, by_line: Dict[int, frozenset]) -> None:
        self._by_line = by_line

    @classmethod
    def parse(cls, source: str) -> "Suppressions":
        by_line: Dict[int, frozenset] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            codes = frozenset(
                token.strip().upper() if token.strip().lower() != "all" else "all"
                for token in match.group(1).replace(",", " ").split()
                if token.strip()
            )
            if codes:
                by_line[lineno] = codes
        return cls(by_line)

    def covers(self, finding: Finding) -> bool:
        codes = self._by_line.get(finding.line)
        if codes is None:
            return False
        return "all" in codes or finding.code in codes


# ---------------------------------------------------------------------------
# Analyzer
# ---------------------------------------------------------------------------


def _link_parents(tree: ast.Module) -> None:
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            setattr(child, _PARENT_ATTR, parent)


def _normalize(path: "str | os.PathLike[str]") -> str:
    return str(path).replace(os.sep, "/")


class Analyzer:
    """Runs a set of rules over sources, files, and directory trees."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        if rules is None:
            # The one registry both the analyzer and the CLI build from.
            from repro.lint.registry import syntactic_rules

            rules = syntactic_rules()
        self.rules: List[Rule] = list(rules)

    def lint_source(
        self, source: str, path: "str | os.PathLike[str]" = "<string>"
    ) -> List[Finding]:
        """Lint one source string; ``path`` scopes path-sensitive rules."""
        posix = _normalize(path)
        try:
            tree = ast.parse(source, filename=posix)
        except SyntaxError as exc:
            return [
                Finding(
                    path=posix,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    code="SIM000",
                    message=f"syntax error: {exc.msg}",
                )
            ]
        _link_parents(tree)
        dispatch: Dict[Type[ast.AST], List[Rule]] = {}
        for rule in self.rules:
            if not rule.applies_to(posix):
                continue
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)
        ctx = FileContext(posix, source, tree)
        findings: List[Finding] = []
        for node in ast.walk(tree):
            for rule in dispatch.get(type(node), ()):
                findings.extend(rule.visit(node, ctx))
        suppressions = Suppressions.parse(source)
        findings = [f for f in findings if not suppressions.covers(f)]
        findings.sort(key=lambda f: (f.line, f.col, f.code))
        return findings

    def lint_file(self, path: "str | os.PathLike[str]") -> List[Finding]:
        text = Path(path).read_text(encoding="utf-8")
        return self.lint_source(text, path=path)


def iter_python_files(
    paths: Iterable["str | os.PathLike[str]"],
) -> Iterator[Path]:
    """Expand files/directories into a deterministic, deduplicated list."""
    seen = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        else:
            candidates = [path]
        for candidate in candidates:
            key = _normalize(candidate)
            if key not in seen:
                seen.add(key)
                yield candidate


__all__ = [
    "Analyzer",
    "FileContext",
    "Finding",
    "Fix",
    "Rule",
    "Severity",
    "Suppressions",
    "iter_python_files",
]

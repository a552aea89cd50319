"""Drift control for the ``REPRO_*`` environment-variable registry.

``repro.core.env`` declares every environment knob in one table; these
tests grep the tree from both directions so neither the code nor the
docs can drift from it:

* an AST scan over ``src/repro`` collects every ``REPRO_*`` literal the
  code actually *reads or writes through the environment* (``os.environ``
  subscripts, ``os.environ.get`` / ``os.getenv`` calls, literals handed
  to ``repro.sim.probe.setting``, and every literal inside a module
  constant named ``ENV`` / ``*_ENV*`` — the switch table in
  :mod:`repro.sim.probe`).  Every
  collected name must be registered, and every row must be collected —
  a row nothing reads is as stale as a read nothing documents;
* the environment table in OBSERVABILITY.md must be byte-identical to
  ``repro.core.env.render_table()``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Set

from repro.core.env import ENV_VARS, by_name, render_table

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

_NAME_RE = re.compile(r"^REPRO_[A-Z_]+$")


def _is_environ(node: ast.AST) -> bool:
    """True for ``os.environ`` or a bare ``environ`` name."""
    if isinstance(node, ast.Attribute) and node.attr == "environ":
        return True
    return isinstance(node, ast.Name) and node.id == "environ"


def _literal(node: ast.AST) -> str:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return ""


class _EnvReads(ast.NodeVisitor):
    """Collect REPRO_* names the module touches through the environment."""

    def __init__(self) -> None:
        self.names: Set[str] = set()

    def _note(self, value: str) -> None:
        if _NAME_RE.match(value):
            self.names.add(value)

    def _note_env_constant(self, targets, value) -> None:
        """Every REPRO_* literal inside an ``ENV``-named constant counts:
        the table's readers index it instead of spelling the names."""
        if value is not None and any(
            isinstance(t, ast.Name) and (t.id == "ENV" or "_ENV" in t.id)
            for t in targets
        ):
            for child in ast.walk(value):
                self._note(_literal(child))

    def visit_Assign(self, node: ast.Assign) -> None:
        self._note_env_constant(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._note_env_constant([node.target], node.value)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if _is_environ(node.value):
            self._note(_literal(node.slice))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        getenv = isinstance(func, ast.Attribute) and func.attr == "getenv"
        getenv = getenv or (isinstance(func, ast.Name) and func.id == "setting")
        environ_get = (
            isinstance(func, ast.Attribute)
            and func.attr in ("get", "pop", "setdefault")
            and _is_environ(func.value)
        )
        if (getenv or environ_get) and node.args:
            self._note(_literal(node.args[0]))
        self.generic_visit(node)


def _scan_src() -> Set[str]:
    names: Set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        visitor = _EnvReads()
        visitor.visit(tree)
        names |= visitor.names
    return names


class TestRegistryShape:
    def test_names_well_formed_and_unique(self):
        names = [var.name for var in ENV_VARS]
        assert len(names) == len(set(names))
        for var in ENV_VARS:
            assert _NAME_RE.match(var.name), var.name
            assert var.consumer
            assert var.meaning.endswith(".")

    def test_by_name_round_trips(self):
        assert set(by_name()) == {var.name for var in ENV_VARS}


class TestCodeAgreement:
    def test_every_code_read_is_registered_as_process(self):
        registry = by_name()
        for name in sorted(_scan_src()):
            assert name in registry, (
                f"{name} is read under src/repro but not declared in "
                "repro.core.env.ENV_VARS"
            )

    def test_every_process_row_is_actually_read(self):
        touched = _scan_src()
        for var in ENV_VARS:
            assert var.name in touched, (
                f"{var.name} is registered but nothing under src/repro "
                "touches it"
            )


class TestDocAgreement:
    def test_observability_table_matches_registry(self):
        doc = (REPO / "OBSERVABILITY.md").read_text(encoding="utf-8")
        table = render_table()
        assert table in doc, (
            "OBSERVABILITY.md's environment table is stale: regenerate "
            "it with repro.core.env.render_table()"
        )

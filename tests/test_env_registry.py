"""Drift control for the ``REPRO_*`` environment variables.

Every environment knob is declared once, beside its reader — the probe
switches on their ``repro.sim.probe.ENV`` rows, the cache directory in
``repro.runner.cache`` — with its meaning; these tests grep the tree
from both directions so neither the code nor the docs can drift from
those declarations:

* an AST scan over ``src/repro`` collects every ``REPRO_*`` literal the
  code actually *reads or writes through the environment* (``os.environ``
  subscripts, ``os.environ.get`` / ``os.getenv`` calls, literals handed
  to ``repro.sim.probe.setting``, and every literal inside a module
  constant whose name contains ``ENV`` — the declarations themselves,
  which their readers index instead of spelling the names).  Every
  collected name must be declared, and every declaration must be
  collected — a row nothing reads is as stale as a read nothing
  documents;
* the environment table in OBSERVABILITY.md must be byte-identical to
  ``repro.obs.telemetry.render_env_table()``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Set

from repro.obs.telemetry import render_env_table
from repro.runner.cache import ENV_CACHE_DIR
from repro.sim.probe import declared

#: name -> meaning of every declared variable.
DECLARED = dict(declared() + [ENV_CACHE_DIR])

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
            isinstance(t, ast.Name) and "ENV" in t.id
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
        names = [name for name, _ in declared()] + [ENV_CACHE_DIR[0]]
        assert len(names) == len(set(names))
        for name, meaning in DECLARED.items():
            assert _NAME_RE.match(name), name
            assert meaning.endswith(".")


class TestCodeAgreement:
    def test_every_code_read_is_registered_as_process(self):
        for name in sorted(_scan_src()):
            assert name in DECLARED, (
                f"{name} is read under src/repro but declared neither on a "
                "repro.sim.probe.ENV row nor beside its reader"
            )

    def test_every_process_row_is_actually_read(self):
        touched = _scan_src()
        for name in DECLARED:
            assert name in touched, (
                f"{name} is declared but nothing under src/repro touches it"
            )


class TestDocAgreement:
    def test_observability_table_matches_registry(self):
        doc = (REPO / "OBSERVABILITY.md").read_text(encoding="utf-8")
        assert render_env_table() in doc, (
            "OBSERVABILITY.md's environment table is stale: regenerate "
            "it with repro.obs.telemetry.render_env_table()"
        )

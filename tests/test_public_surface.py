"""Every public name in ``src/repro`` earns a caller outside ``tests/``.

The census walks the AST of ``src/repro`` (outside ``repro.lint``) for
public functions, classes and methods.  A *reference* is a Name, an
Attribute, an import or an identifier string anywhere in ``src/repro``,
``benchmarks/`` (the ledger included), ``examples/`` or ``scripts/`` —
except inside the definition's own body, an ``__all__`` list or a
package ``__init__``'s re-exports.  A method is only ever named through
an attribute or a string, so bare Names do not count for it.  A
reference made from inside a definition that is itself unreferenced
does not count either: dead code does not keep its callees alive.

A definition left unreferenced is library surface only the tests reach.
Delete it, or give it a program caller; :data:`KEEP` is the short list
of deliberate exceptions, one reason each.  Parameters are not censused
(``TransferFactory(on_launch=)`` stays as ROADMAP 5c's flow-lifecycle
seam).
"""

import ast
import re
from pathlib import Path
from typing import Collection, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Dotted strings (``"repro.fluid.backend:_simulate"``) name every part.
IDENTIFIER = re.compile(r"^[A-Za-z_][\w.:]*$")

#: ``module:qualname`` -> why it stays without a program caller.
KEEP = {
    "repro.core.utility:equilibrium_marking_probability":
        "ROADMAP 8: Eq. 3's equilibrium, a reference for the theorem check",
    "repro.core.utility:bos_utility":
        "ROADMAP 8: Eq. 4's BOS utility, a reference for the theorem check",
    "repro.core.utility:xmp_utility":
        "ROADMAP 8: Eq. 6's XMP utility, a reference for the theorem check",
    "repro.core.utility:xmp_expected_congestion":
        "ROADMAP 8: Eq. 7's U'(y), the Congestion Equality level",
    "repro.core.utility:subflow_equilibrium_probability":
        "ROADMAP 8: Eq. 8's per-subflow equilibrium",
    "repro.core.utility:trash_step":
        "ROADMAP 8: Proposition 1's TraSh step on given rates",
    "repro.net.network:Network.set_link_pair_up":
        "ROADMAP 6a: the fuzzer's link-flap scripts heal a link through it",
    "repro.fluid.solver:integrate_single_flow":
        "reference implementation the fluid solvers are tested against",
    "repro.fluid.laws:render_scheme_table":
        "renders DESIGN.md's scheme table; a test pins the document copy",
    "repro.obs.telemetry:render_env_table":
        "renders OBSERVABILITY.md's REPRO_* table; a test pins the copy",
    "repro.obs.records:deterministic_view":
        "harness view of telemetry records the determinism tests compare",
    "repro.runner.cache:reset_default_cache":
        "harness hook: forget the process-wide cache between tests",
    "repro.sim.engine:Simulator.cancelled_pending":
        "harness view of the scheduler's lazy-cancellation bookkeeping",
    "repro.workloads.cdf:SizeCDF.cdf_at":
        "harness view: the CDF the size sampler inverts",
    "repro.experiments.fig9_jct_cdf:JctResult.cdf":
        "harness view of the JCT distribution Fig. 9 plots",
}

Key = Tuple[str, str]  # (module, qualname)


class _Scan(ast.NodeVisitor):
    """One file's public definitions and the references it makes, each
    reference tagged with the censused definition whose body holds it."""

    def __init__(self, module: Optional[str], package_init: bool) -> None:
        self.module = module  # None: the file's definitions are not censused
        self.package_init = package_init
        self.parents: List[Tuple[ast.AST, Optional[Key]]] = []
        self.defs: Dict[Key, bool] = {}  # key -> is a method
        self.refs: List[Tuple[str, bool, Optional[Key]]] = []  # name, bare, scope

    def _scope(self) -> Optional[Key]:
        return next((key for _, key in reversed(self.parents) if key), None)

    def _ref(self, name: str, bare: bool) -> None:
        self.refs.append((name, bare, self._scope()))

    def _definition(self, node) -> None:
        key = None
        if self.module is not None and not node.name.startswith("_"):
            if not self.parents:
                key = (self.module, node.name)
            elif len(self.parents) == 1:
                parent, parent_key = self.parents[0]
                if isinstance(parent, ast.ClassDef) and parent_key:
                    key = (self.module, f"{parent_key[1]}.{node.name}")
        if key:
            self.defs[key] = len(self.parents) == 1
        for decorator in node.decorator_list:
            self.visit(decorator)
        self.parents.append((node, key))
        for field, value in ast.iter_fields(node):
            if field != "decorator_list":
                for child in value if isinstance(value, list) else [value]:
                    if isinstance(child, ast.AST):
                        self.visit(child)
        self.parents.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Assign(self, node: ast.Assign) -> None:
        if not any(getattr(target, "id", None) == "__all__" for target in node.targets):
            self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not self.package_init:
            for alias in node.names:
                self._ref(alias.name, True)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            for part in alias.name.split("."):
                self._ref(part, True)

    def visit_Name(self, node: ast.Name) -> None:
        self._ref(node.id, True)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._ref(node.attr, False)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and IDENTIFIER.match(node.value):
            for part in re.split(r"[.:]", node.value):
                self._ref(part, False)


def _module(path: Path) -> Optional[str]:
    """The censused module ``path`` defines, or None outside the census."""
    if not path.is_relative_to(SRC) or path.is_relative_to(SRC / "lint"):
        return None
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def census(keep: Collection[str] = KEEP) -> Dict[Key, bool]:
    """Every censused definition -> whether a live program reference
    reaches it; definitions named in ``keep`` count as live."""
    defs: Dict[Key, bool] = {}
    refs: Dict[str, List[Tuple[bool, Optional[Key]]]] = {}
    files = sorted(SRC.rglob("*.py"))
    for directory in ("benchmarks", "examples", "scripts"):
        files += sorted((ROOT / directory).rglob("*.py"))
    for path in files:
        scan = _Scan(_module(path), path.name == "__init__.py")
        scan.visit(ast.parse(path.read_text(), str(path)))
        defs.update(scan.defs)
        for name, bare, scope in scan.refs:
            refs.setdefault(name, []).append((bare, scope))
    for script in sorted((ROOT / "scripts").glob("*.sh")):
        for token in re.findall(r"[A-Za-z_]\w*", script.read_text()):
            refs.setdefault(token, []).append((False, None))

    alive = dict.fromkeys(defs, True)

    def live(scope: Optional[Key], key: Key) -> bool:
        if scope is None:
            return True
        owner = (scope[0], scope[1].split(".")[0])
        return key not in (scope, owner) and alive[scope] and alive[owner]

    changed = True
    while changed:
        changed = False
        for key, is_method in defs.items():
            if not alive[key] or f"{key[0]}:{key[1]}" in keep:
                continue
            name = key[1].rsplit(".", 1)[-1]
            if not any(
                live(scope, key)
                for bare, scope in refs.get(name, ())
                if not (bare and is_method)
            ):
                alive[key] = False
                changed = True
    return alive


def test_every_public_name_has_a_program_caller():
    test_only = sorted(
        f"{module}:{qualname}" for (module, qualname), live in census().items() if not live
    )
    assert not test_only, (
        "public definitions only tests reach; delete them or give them a "
        "program caller (KEEP is for deliberate exceptions): " + ", ".join(test_only)
    )


def test_keep_list_is_exactly_the_exceptions():
    """Every KEEP entry names a definition the census would flag without
    it: an entry whose definition is gone, or that has since gained a
    program caller, is stale."""
    flagged = {f"{module}:{qualname}" for (module, qualname), live in census(keep=()).items()
               if not live}
    assert sorted(set(KEEP) - flagged) == []

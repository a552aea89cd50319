"""Every public name and every defaulted parameter in ``src/repro`` earns
a caller outside ``tests/``.

The census walks the AST of ``src/repro`` (``repro.lint`` included) for
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
of deliberate exceptions, one reason each.

Parameters are censused the same way.  A defaulted parameter of a
censused function or method (a class's: of its ``__init__``) must be
passed by some live program-path call.  Calls match callees by bare
name, the same rule as references, and a ``super().__init__(...)`` is a
call of the enclosing class's bases.  A ``*``/``**`` splat, or the
callable handed on as a value (a call argument or an assigned value),
counts as setting every parameter.  A parameter
nothing sets is a knob only the tests turn: make it a constant, or list
it in :data:`KEEP_PARAMS` with its reason.
"""

import ast
import functools
import re
from pathlib import Path
from typing import Collection, Dict, List, Optional, Set, Tuple

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

#: ``module:qualname(param=)`` -> why the parameter stays without a
#: program-path setter.
KEEP_PARAMS = {
    "repro.sim.engine:Simulator.schedule_at(priority=)":
        "keeps the engine API symmetric with post/schedule; the calendar "
        "property tests drive same-instant ties through it",
    "repro.core.analysis:predict_sawtooth(delta=)":
        "a model parameter of the sawtooth prediction (Eq. 3's delta)",
    "repro.mptcp.connection:MptcpConnection(ack_jitter=)":
        "the phase-locking cure EXPERIMENTS.md describes",
    "repro.traffic.factory:TransferFactory(on_launch=)":
        "ROADMAP 5c's flow-lifecycle seam",
}

Key = Tuple[str, str]  # (module, qualname)
#: A call: callee name, bare, positional count, keywords (None: every
#: parameter), the scope holding it.
Call = Tuple[str, bool, int, Optional[Set[str]], Optional[Key]]


class _Scan(ast.NodeVisitor):
    """One file's public definitions, their defaulted parameters, and the
    references and calls it makes, each tagged with the censused
    definition whose body holds it."""

    def __init__(self, module: Optional[str], package_init: bool) -> None:
        self.module = module  # None: the file's definitions are not censused
        self.package_init = package_init
        self.parents: List[Tuple[ast.AST, Optional[Key]]] = []
        self.defs: Dict[Key, bool] = {}  # key -> is a method
        self.refs: List[Tuple[str, bool, Optional[Key]]] = []  # name, bare, scope
        #: key -> defaulted parameter -> its positional index (None: keyword-only).
        self.params: Dict[Key, Dict[str, Optional[int]]] = {}
        self.calls: List[Call] = []

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
        if key and not isinstance(node, ast.ClassDef):
            self._parameters(key, node, method=bool(self.parents))
        elif node.name == "__init__" and len(self.parents) == 1 and self.parents[0][1]:
            self._parameters(self.parents[0][1], node, method=True)
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

    def _parameters(self, key: Key, node, method: bool) -> None:
        args = node.args
        positional = args.posonlyargs + args.args
        static = any(_name(d) == ("staticmethod", True) for d in node.decorator_list)
        skip = 1 if method and not static else 0
        defaulted = self.params.setdefault(key, {})
        for index in range(len(positional) - len(args.defaults), len(positional)):
            defaulted[positional[index].arg] = index - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                defaulted[arg.arg] = None

    def visit_Assign(self, node: ast.Assign) -> None:
        if not any(getattr(target, "id", None) == "__all__" for target in node.targets):
            self._passed(node.value)
            self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        keywords: Optional[Set[str]] = {kw.arg for kw in node.keywords if kw.arg}
        if any(kw.arg is None for kw in node.keywords) or any(
            isinstance(arg, ast.Starred) for arg in node.args
        ):
            keywords = None
        scope = self._scope()
        if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and _name(func.value.func) == ("super", True)):
            cls = next(n for n, _ in reversed(self.parents) if isinstance(n, ast.ClassDef))
            for base in cls.bases:
                if _name(base):
                    self.calls.append((_name(base)[0], True, len(node.args), keywords, scope))
        elif _name(func):
            name, bare = _name(func)
            self.calls.append((name, bare, len(node.args), keywords, scope))
        for value in node.args + [kw.value for kw in node.keywords]:
            self._passed(value)
        self.generic_visit(node)

    def _passed(self, node: ast.AST) -> None:
        """A callable handed on as a value sets every parameter."""
        if _name(node):
            name, bare = _name(node)
            self.calls.append((name, bare, 0, None, self._scope()))

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


def _name(node: ast.AST) -> Optional[Tuple[str, bool]]:
    """The bare name a Name or Attribute node spells, and whether it is bare."""
    if isinstance(node, ast.Name):
        return node.id, True
    if isinstance(node, ast.Attribute):
        return node.attr, False
    return None


def _module(path: Path) -> Optional[str]:
    """The censused module ``path`` defines, or None outside the census."""
    if not path.is_relative_to(SRC):
        return None
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@functools.lru_cache(maxsize=None)
def _scan() -> Tuple[_Scan, ...]:
    """Every program file, scanned once per session."""
    files = sorted(SRC.rglob("*.py"))
    for directory in ("benchmarks", "examples", "scripts"):
        files += sorted((ROOT / directory).rglob("*.py"))
    scans = []
    for path in files:
        scan = _Scan(_module(path), path.name == "__init__.py")
        scan.visit(ast.parse(path.read_text(), str(path)))
        scans.append(scan)
    return tuple(scans)


def census(keep: Collection[str] = KEEP) -> Dict[Key, bool]:
    """Every censused definition -> whether a live program reference
    reaches it; definitions named in ``keep`` count as live."""
    defs: Dict[Key, bool] = {}
    refs: Dict[str, List[Tuple[bool, Optional[Key]]]] = {}
    for scan in _scan():
        defs.update(scan.defs)
        for name, bare, scope in scan.refs:
            refs.setdefault(name, []).append((bare, scope))
    for script in sorted((ROOT / "scripts").glob("*.sh")):
        for token in re.findall(r"[A-Za-z_]\w*", script.read_text()):
            refs.setdefault(token, []).append((False, None))

    alive = dict.fromkeys(defs, True)

    changed = True
    while changed:
        changed = False
        for key, is_method in defs.items():
            if not alive[key] or f"{key[0]}:{key[1]}" in keep:
                continue
            name = key[1].rsplit(".", 1)[-1]
            if not any(
                _live(alive, scope, key)
                for bare, scope in refs.get(name, ())
                if not (bare and is_method)
            ):
                alive[key] = False
                changed = True
    return alive


def _live(alive: Dict[Key, bool], scope: Optional[Key], key: Key) -> bool:
    """Whether a reference from ``scope`` to ``key`` keeps ``key`` alive."""
    if scope is None:
        return True
    owner = (scope[0], scope[1].split(".")[0])
    return key not in (scope, owner) and alive[scope] and alive[owner]


def parameter_census(keep: Collection[str] = KEEP_PARAMS) -> Dict[str, bool]:
    """Every defaulted parameter of a live censused definition, as
    ``module:qualname(param=)`` -> whether a live program call sets it;
    parameters named in ``keep`` count as set."""
    alive = census()
    params: Dict[Key, Dict[str, Optional[int]]] = {}
    calls: Dict[str, List[Call]] = {}
    defs: Dict[Key, bool] = {}
    for scan in _scan():
        params.update(scan.params)
        defs.update(scan.defs)
        for call in scan.calls:
            calls.setdefault(call[0], []).append(call)

    result: Dict[str, bool] = {}
    for key, defaulted in params.items():
        if not alive.get(key):
            continue
        setters = [
            call for call in calls.get(key[1].rsplit(".", 1)[-1], ())
            if not (call[1] and defs[key]) and _live(alive, call[4], key)
        ]
        for param, index in defaulted.items():
            label = f"{key[0]}:{key[1]}({param}=)"
            result[label] = label in keep or any(
                keywords is None or param in keywords
                or (index is not None and index < positional)
                for _, _, positional, keywords, _ in setters
            )
    return result


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


def test_every_defaulted_parameter_has_a_program_setter():
    test_only = sorted(label for label, live in parameter_census().items() if not live)
    assert not test_only, (
        "defaulted parameters only tests set; make them constants or pass "
        "them on a program path (KEEP_PARAMS is for deliberate exceptions): "
        + ", ".join(test_only)
    )


def test_keep_params_is_exactly_the_exceptions():
    """Every KEEP_PARAMS entry names a parameter the census would flag
    without it; a gone or since-set parameter is a stale entry."""
    flagged = {label for label, live in parameter_census(keep=()).items() if not live}
    assert sorted(set(KEEP_PARAMS) - flagged) == []

"""Phase 1: one JSON-serializable summary per source file.

The summary carries everything the whole-program joins need, so that no
join ever re-parses a file: per function its call records (the callee
of every call: the call graph the allocation sanitizer's explanation
closure walks), its scheduler calls (SIM018's raw material) and its
cost record (SIM019/SIM020's), per class its methods, and per file its
suppressions and allocation waivers.  A file that fails to parse
carries one SIM000 finding instead.  The joins live in
:mod:`repro.lint.sem.project`.
"""

from __future__ import annotations

import ast
import re
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.lint.core import Suppressions, _normalize

#: Receiver terminals that make a ``.schedule()``/``.post()`` call a
#: scheduler call (SIM018's raw material): ``sim.schedule(...)``,
#: ``self._sim.post(...)``, ``net.sim.schedule_at(...)``, ``sim.post_at(...)``.
_SIM_RECEIVER_RE = re.compile(r"^_?sim(ulator)?$")

#: Method names that enqueue an event on a simulator receiver.
_SCHED_METHODS = frozenset({"schedule", "post", "schedule_at", "post_at"})

#: ``# simperf: allow-alloc(<reason>)`` — the simperf allocation waiver.
#: The reason is mandatory: an empty parenthesis records nothing, so the
#: finding still fires.  Captured per line into the summary so the perf
#: join pass (and the runtime sanitizer's cross-check) can honor it
#: without re-reading the file.
PERF_PRAGMA_RE = re.compile(r"#\s*simperf:\s*allow-alloc\(([^)]*)\)")


def module_name_for_path(path: str) -> str:
    """Best-effort dotted module name for a (possibly virtual) path.

    ``src/repro/net/link.py`` -> ``repro.net.link``; a path without a
    recognizable package root falls back to its stem.
    """
    posix = _normalize(path)
    parts = [part for part in posix.split("/") if part]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    elif "repro" in parts:
        parts = parts[parts.index("repro") :]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "<unknown>"


class _ImportMap:
    """Local name -> dotted target, from the file's import statements."""

    def __init__(self, module: str) -> None:
        self._module = module
        self._bindings: Dict[str, str] = {}

    def record(self, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                self._bindings[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = self._resolve_from(node)
            if base is None:
                return
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                self._bindings[local] = f"{base}.{alias.name}" if base else alias.name

    def _resolve_from(self, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module or ""
        # Relative import: climb the current module's package.
        package_parts = self._module.split(".")
        if len(package_parts) < node.level:
            return None
        base_parts = package_parts[: len(package_parts) - node.level]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts)

    def resolve(self, name: str) -> Optional[str]:
        return self._bindings.get(name)


def _dotted_name(expr: ast.expr, imports: _ImportMap) -> Optional[str]:
    """Resolve ``Name``/``Attribute`` chains through the import map."""
    if isinstance(expr, ast.Name):
        return imports.resolve(expr.id)
    if isinstance(expr, ast.Attribute):
        base = _dotted_name(expr.value, imports)
        if base is None:
            return None
        return f"{base}.{expr.attr}"
    return None


def _loc(node: ast.AST) -> Tuple[int, int]:
    return int(getattr(node, "lineno", 1)), int(getattr(node, "col_offset", 0))


# ---------------------------------------------------------------------------
# Cost records (simperf's raw material)
# ---------------------------------------------------------------------------

#: Python-level names recognized by name as allocating a fresh object.
_ALLOC_BUILTINS = frozenset(
    {
        "list", "dict", "set", "tuple", "frozenset", "bytearray", "bytes",
        "str", "range", "sorted", "reversed", "enumerate", "zip", "map",
        "filter", "vars", "deque", "defaultdict", "namedtuple", "array",
        "copy", "deepcopy",
    }
)


def _callee_text(func: ast.expr) -> str:
    """Compact display text for a call's callee (for cost records)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        base = _callee_text(func.value)
        return f"{base}.{func.attr}" if base else func.attr
    return ""


def _is_alloc_call(func: ast.expr) -> bool:
    """Heuristic: does calling this callee allocate a fresh object?

    Capitalized terminals are constructors by convention (``Event``,
    ``units.Seconds``); a small closed set of lowercase builtins
    (``list``, ``range``, ``deque``, …) allocates too.  Plain method and
    function calls are *not* allocations here — what a callee allocates
    is measured by the allocation sanitizer instead of guessed.
    """
    terminal: Optional[str] = None
    if isinstance(func, ast.Name):
        terminal = func.id
    elif isinstance(func, ast.Attribute):
        terminal = func.attr
    if terminal is None:
        return False
    if terminal in _ALLOC_BUILTINS:
        return True
    return terminal[:1].isupper() and not terminal.isupper()


def _attr_chain(node: ast.Attribute) -> Optional[Tuple[str, int]]:
    """``(dotted text, depth)`` of a Name-rooted attribute chain.

    Depth counts attribute hops: ``self.x`` is 1, ``self._queue.pop``
    is 2.  Chains rooted in anything but a plain name (a call result, a
    subscript) return ``None`` — they cannot be hoisted by pre-binding.
    """
    parts: List[str] = []
    cursor: ast.expr = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if not isinstance(cursor, ast.Name):
        return None
    parts.append(cursor.id)
    parts.reverse()
    return ".".join(parts), len(parts) - 1


def _collect_cost(node: ast.AST) -> Dict[str, Any]:
    """The per-function cost record.

    Everything simperf's join pass needs to reason about a function's
    datapath cost without re-parsing it:

    * ``allocs`` — object-allocation sites (constructor calls, container
      displays, comprehensions/genexps, f-strings and str ``+``-concat,
      lambda/closure creation), each ``{kind, line, col, detail,
      in_loop}``;
    * ``attr_chains`` — Name-rooted attribute chains of depth >= 2
      inside loops, aggregated ``{chain, count, line, col}`` (first
      occurrence position).

    ``in_loop`` nests through loop *bodies* only: a ``for`` iterable is
    evaluated once and does not count.
    """
    allocs: List[Dict[str, Any]] = []
    chains: Dict[str, Dict[str, Any]] = {}

    def record_alloc(kind: str, n: ast.AST, detail: str, in_loop: bool) -> None:
        line, col = _loc(n)
        allocs.append(
            {"kind": kind, "line": line, "col": col, "detail": detail,
             "in_loop": in_loop}
        )

    def visit(n: ast.AST, in_loop: bool, chain_parent: bool) -> None:
        is_chain_parent = False
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if n is not node:
                record_alloc("closure", n, n.name, in_loop)
                return  # nested defs are scanned as their own functions
        elif isinstance(n, ast.Lambda):
            record_alloc("lambda", n, "lambda", in_loop)
            return
        elif isinstance(n, ast.Call):
            if _is_alloc_call(n.func):
                record_alloc("call", n, _callee_text(n.func), in_loop)
        elif isinstance(n, (ast.ListComp, ast.SetComp, ast.DictComp,
                            ast.GeneratorExp)):
            kind = {
                ast.ListComp: "listcomp", ast.SetComp: "setcomp",
                ast.DictComp: "dictcomp", ast.GeneratorExp: "genexp",
            }[type(n)]
            record_alloc("comprehension", n, kind, in_loop)
        elif isinstance(n, (ast.List, ast.Set, ast.Dict)):
            detail = type(n).__name__.lower()
            record_alloc("display", n, detail, in_loop)
        elif isinstance(n, ast.Tuple) and isinstance(n.ctx, ast.Load):
            record_alloc("display", n, "tuple", in_loop)
        elif isinstance(n, ast.JoinedStr):
            record_alloc("fstring", n, "f-string", in_loop)
        elif isinstance(n, ast.BinOp) and isinstance(n.op, ast.Add):
            if any(
                isinstance(side, ast.JoinedStr)
                or (isinstance(side, ast.Constant) and isinstance(side.value, str))
                for side in (n.left, n.right)
            ):
                record_alloc("str-concat", n, "+", in_loop)
        elif isinstance(n, ast.Attribute):
            is_chain_parent = True
            if in_loop and not chain_parent and isinstance(n.ctx, ast.Load):
                resolved = _attr_chain(n)
                if resolved is not None and resolved[1] >= 2:
                    chain_text = resolved[0]
                    line, col = _loc(n)
                    entry = chains.get(chain_text)
                    if entry is None:
                        chains[chain_text] = {
                            "chain": chain_text, "count": 1,
                            "line": line, "col": col,
                        }
                    else:
                        entry["count"] = int(entry["count"]) + 1

        if isinstance(n, ast.AnnAssign):
            # The annotation itself is not evaluated per call (and under
            # ``from __future__ import annotations`` never at all); only
            # the assigned value costs anything.
            if n.value is not None:
                visit(n.value, in_loop, False)
            return
        if isinstance(n, (ast.For, ast.AsyncFor)):
            visit(n.target, in_loop, False)
            visit(n.iter, in_loop, False)
            for stmt in n.body + n.orelse:
                visit(stmt, True, False)
            return
        if isinstance(n, ast.While):
            visit(n.test, True, False)
            for stmt in n.body + n.orelse:
                visit(stmt, True, False)
            return
        for child in ast.iter_child_nodes(n):
            visit(child, in_loop, is_chain_parent)

    # Only the body executes per call: parameter annotations, defaults,
    # the return annotation and decorators all evaluate at def time.
    for child in getattr(node, "body", []):
        visit(child, False, False)

    return {
        "allocs": allocs,
        "attr_chains": sorted(
            chains.values(), key=lambda c: (int(c["line"]), int(c["col"]))
        ),
    }


class _FunctionScanner:
    """Collects one function body's call records and scheduler calls."""

    def __init__(self, imports: _ImportMap) -> None:
        self.imports = imports
        self.calls: List[Dict[str, Any]] = []
        self.sched_calls: List[Dict[str, Any]] = []

    # -- scheduler calls (SIM018's raw material) --------------------------

    @staticmethod
    def _is_sim_receiver(expr: ast.expr) -> bool:
        """Whether an expression terminates in a simulator-ish name."""
        if isinstance(expr, ast.Name):
            return _SIM_RECEIVER_RE.match(expr.id) is not None
        if isinstance(expr, ast.Attribute):
            return _SIM_RECEIVER_RE.match(expr.attr) is not None
        return False

    @staticmethod
    def _classify_priority(call: ast.Call) -> Dict[str, Any]:
        """Abstract the ``priority=`` argument of a scheduler call.

        ``default`` (omitted), ``literal`` (bare int — unnamed) or
        ``other`` (a name or expression; never flagged).
        """
        for keyword in call.keywords:
            if keyword.arg == "priority":
                try:
                    literal = ast.literal_eval(keyword.value)
                except (TypeError, ValueError):
                    return {"kind": "other"}
                if type(literal) not in (int, float):
                    return {"kind": "other"}
                return {"kind": "literal", "value": int(literal)}
        return {"kind": "default"}

    @staticmethod
    def _classify_callback(expr: Optional[ast.expr]) -> Dict[str, Any]:
        """Abstract the callback argument of a scheduler call: a method
        of ``self``, a method of some other receiver, or anything else."""
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                return {"kind": "self", "method": expr.attr}
            return {"kind": "recv", "method": expr.attr}
        return {"kind": "unknown"}

    def _record_sched_call(self, call: ast.Call) -> None:
        func = call.func
        assert isinstance(func, ast.Attribute)
        line, col = _loc(call)
        callback_expr = call.args[1] if len(call.args) > 1 else None
        self.sched_calls.append(
            {
                "line": line,
                "col": col,
                "priority": self._classify_priority(call),
                "callback": self._classify_callback(callback_expr),
            }
        )

    def _record_call(self, call: ast.Call) -> None:
        func = call.func
        callee: Optional[Dict[str, Any]] = None
        dotted = _dotted_name(func, self.imports)
        if dotted is not None:
            callee = {"kind": "dotted", "name": dotted}
        elif isinstance(func, ast.Name):
            callee = {"kind": "local", "name": func.id}
        elif isinstance(func, ast.Attribute):
            if func.attr in _SCHED_METHODS and self._is_sim_receiver(
                func.value
            ):
                self._record_sched_call(call)
            callee = {"kind": "attr", "name": func.attr}
        if callee is None:
            return
        line, col = _loc(call)
        self.calls.append({"callee": callee, "line": line, "col": col})

    def scan(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._record_call(sub)


def _iter_functions(
    tree: ast.Module,
) -> Iterator[Tuple[str, ast.AST, Optional[str]]]:
    """Yield (qname, node, class_name) for every def, one nesting level of
    classes and arbitrarily nested functions."""

    def walk(
        nodes: List[ast.stmt], prefix: str, class_name: Optional[str]
    ) -> Iterator[Tuple[str, ast.AST, Optional[str]]]:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{prefix}{node.name}" if prefix else node.name
                yield qname, node, class_name
                yield from walk(node.body, f"{qname}.", class_name)
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{node.name}.", node.name)

    yield from walk(tree.body, "", None)


def build_summary(path: str, source: str) -> Dict[str, Any]:
    """Build the phase-1 summary for one file.

    A file that fails to parse yields a summary with a single SIM000
    local finding, so the whole-program pass degrades exactly like the
    per-file rules.
    """
    posix = _normalize(path)
    module = module_name_for_path(posix)
    try:
        tree = ast.parse(source, filename=posix)
    except SyntaxError as exc:
        return {
            "path": posix,
            "module": module,
            "parse_error": True,
            "functions": {},
            "classes": {},
            "suppressions": {},
            "perf_pragmas": {},
            "local_findings": [
                ["SIM000", exc.lineno or 1, (exc.offset or 1) - 1,
                 f"syntax error: {exc.msg}"]
            ],
        }

    imports = _ImportMap(module)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.record(node)

    classes: Dict[str, Dict[str, Any]] = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods: Dict[str, int] = {
                item.name: item.lineno
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            classes[node.name] = {"line": node.lineno, "methods": methods}

    functions: Dict[str, Dict[str, Any]] = {}
    for qname, node, class_name in _iter_functions(tree):
        scanner = _FunctionScanner(imports)
        scanner.scan(node)
        functions[qname] = {
            "class": class_name,
            "calls": scanner.calls,
            "sched_calls": scanner.sched_calls,
            "cost": _collect_cost(node),
        }

    # Calls at module level (rare) are recorded as a pseudo-function.
    module_scanner = _FunctionScanner(imports)
    for stmt in tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            module_scanner.scan(stmt)
    if module_scanner.calls:
        functions["<module>"] = {
            "class": None,
            "calls": module_scanner.calls,
            "sched_calls": module_scanner.sched_calls,
        }

    suppressions = Suppressions.parse(source)
    suppression_map = {
        str(line): sorted(codes)
        for line, codes in suppressions._by_line.items()
    }

    perf_pragmas: Dict[str, str] = {}
    for lineno, line_text in enumerate(source.splitlines(), start=1):
        pragma = PERF_PRAGMA_RE.search(line_text)
        if pragma is not None and pragma.group(1).strip():
            perf_pragmas[str(lineno)] = pragma.group(1).strip()

    return {
        "path": posix,
        "module": module,
        "parse_error": False,
        "functions": functions,
        "classes": classes,
        "suppressions": suppression_map,
        "perf_pragmas": perf_pragmas,
        "local_findings": [],
    }


__all__ = [
    "PERF_PRAGMA_RE",
    "build_summary",
    "module_name_for_path",
]

"""Phase 1: one JSON-serializable summary per source file.

The summary carries *everything* phase 2 needs — symbol definitions,
import bindings, call records with abstract argument values, locally
decidable findings (SIM012 unit-unsafe arithmetic, SIM013 seed
provenance), observer-hook call/definition sites, handler-named defs and
the file's identifier reference set — so that no join ever re-parses
a file.  Anything that requires another
file's facts (sink resolution, hook conformance, dead handlers) is left
to :mod:`repro.lint.sem.project`.

Abstract values form a tiny lattice, encoded as plain dicts so the whole
summary round-trips through JSON:

``{"k": "dim", "d": <dimension>}``
    value of a known dimension (from a ``repro.sim.units`` constructor,
    an alias-annotated parameter, or dimension-preserving arithmetic);
``{"k": "raw", "via": 0|1, "zero": bool}``
    numeric literal — ``via 0`` directly at the use site, ``via 1``
    having travelled through at least one assignment (``zero`` marks an
    exact zero, which is dimensionless and never flagged);
``{"k": "param", "name": p}``
    pristine reference to parameter ``p`` of the enclosing function
    (never reassigned) — phase 2 derives sinks through these;
``{"k": "import", "name": dotted}``
    reference to an imported module-level constant, resolved by phase 2;
``{"k": "unknown"}``
    everything else (the safe default: unknown never fires a rule).
"""

from __future__ import annotations

import ast
import re
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.core import Suppressions, _normalize
from repro.sim.units import ANNOTATION_DIMENSIONS, CONSTRUCTOR_DIMENSIONS

UNITS_MODULE = "repro.sim.units"
RANDOM_STREAMS = "repro.sim.random.RandomStreams"

#: Callable names matching this are event-handler-shaped (SIM015).
HANDLER_NAME_RE = re.compile(
    r"^_?on_|^_handle_|^_finish_|^_fire_"
    r"|_timeout$|_expired$|_tick$|_handler$|_callback$"
)

#: Receiver identifiers that make a ``.on_*()`` call an observer-hook
#: dispatch (SIM014): the engine's one ``probe`` slot
#: (``probe.on_x(...)``, ``self.probe.on_x(...)``) and the per-object
#: validation ``observer`` (``self.observer.on_x(...)``).  Hot paths that
#: hoist the receiver into a local (``obs = self.observer`` before a
#: drain loop) are caught by the scanner's alias tracking, which maps the
#: local back to the receiver it was loaded from.
HOOK_RECEIVERS = frozenset({"probe", "observer"})

#: Receiver terminals that make a ``.schedule()``/``.post()`` call a
#: scheduler call (SIM018's raw material): ``sim.schedule(...)``,
#: ``self._sim.post(...)``, ``net.sim.schedule_at(...)``, ``sim.post_at(...)``.
_SIM_RECEIVER_RE = re.compile(r"^_?sim(ulator)?$")

#: Method names that enqueue an event on a simulator receiver.
_SCHED_METHODS = frozenset({"schedule", "post", "schedule_at", "post_at"})

#: Roots that make a seed expression nondeterministic across processes
#: (SIM013): name -> human-readable reason.
NONDETERMINISTIC_SEED_ROOTS: Dict[str, str] = {
    "hash": "hash() is salted per process for str/bytes",
    "id": "id() is an address, different every run",
    "object": "object identity is different every run",
    "os.getpid": "the PID differs per process",
    "os.urandom": "os.urandom() is entropy, not a seed",
    "uuid.uuid1": "uuid1() embeds clock and MAC",
    "uuid.uuid4": "uuid4() is entropy, not a seed",
}

#: Deterministic pure functions a seed may pass through.
_SEED_TRANSPARENT_CALLS = frozenset(
    {"int", "abs", "zlib.crc32", "zlib.adler32", "min", "max", "round"}
)

_SEEDISH_NAME_RE = re.compile(r"seed|^rng$|^streams$|^stream$")

#: ``# simperf: allow-alloc(<reason>)`` — the simperf allocation waiver.
#: The reason is mandatory: an empty parenthesis records nothing, so the
#: finding still fires.  Captured per line into the summary so the perf
#: join pass (and the runtime sanitizer's cross-check) can honor it
#: without re-reading the file.
PERF_PRAGMA_RE = re.compile(r"#\s*simperf:\s*allow-alloc\(([^)]*)\)")


def _absval_dim(dimension: str) -> Dict[str, Any]:
    return {"k": "dim", "d": dimension}


def _absval_raw(via: int, zero: bool = False) -> Dict[str, Any]:
    return {"k": "raw", "via": via, "zero": zero}


_UNKNOWN: Dict[str, Any] = {"k": "unknown"}


def _join(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Lattice join: agreeing values survive, anything else is unknown."""
    if a == b:
        return a
    if a["k"] == "raw" and b["k"] == "raw":
        return _absval_raw(
            max(int(a["via"]), int(b["via"])),
            bool(a.get("zero")) and bool(b.get("zero")),
        )
    return _UNKNOWN


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


def _annotation_dimension(
    annotation: Optional[ast.expr], imports: _ImportMap
) -> Optional[str]:
    """Dimension declared by a parameter annotation, if any.

    Recognizes the bare aliases (``Seconds``), dotted forms
    (``units.Seconds``) and ``Optional[Seconds]``.
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Subscript):
        outer = _dotted_name(annotation.value, imports)
        outer_name = outer.split(".")[-1] if outer else getattr(
            annotation.value, "id", None
        )
        if outer_name == "Optional":
            return _annotation_dimension(annotation.slice, imports)
        return None
    dotted = _dotted_name(annotation, imports)
    if dotted is not None and dotted.startswith(UNITS_MODULE + "."):
        alias = dotted.rsplit(".", 1)[1]
        return ANNOTATION_DIMENSIONS.get(alias)
    if isinstance(annotation, ast.Name):
        # Unimported bare alias: only meaningful if it IS one of ours.
        return None
    return None


def _numeric_literal(expr: ast.expr) -> Optional[float]:
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.USub):
        inner = _numeric_literal(expr.operand)
        return None if inner is None else -inner
    if isinstance(expr, ast.Constant) and type(expr.value) in (int, float):
        return float(expr.value)
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
    """Evaluates one function body: env, call records, local findings."""

    def __init__(
        self,
        module: str,
        qname: str,
        node: ast.AST,
        imports: _ImportMap,
        params: List[str],
        param_dims: Dict[str, str],
        module_constants: Dict[str, Dict[str, Any]],
        local_returns: Dict[str, str],
        self_attr_dims: Dict[str, str],
        is_method: bool,
    ) -> None:
        self.module = module
        self.qname = qname
        self.node = node
        self.imports = imports
        self.params = params
        self.param_dims = param_dims
        self.module_constants = module_constants
        self.local_returns = local_returns
        self.self_attr_dims = self_attr_dims
        self.is_method = is_method
        self.calls: List[Dict[str, Any]] = []
        self.findings: List[Tuple[str, int, int, str]] = []
        self.hook_calls: List[Dict[str, Any]] = []
        self.sched_calls: List[Dict[str, Any]] = []
        self.return_dims: List[Optional[str]] = []
        self._env: Dict[str, Dict[str, Any]] = {}
        self._assigned: Set[str] = set()
        #: Local name -> hook receiver it aliases (``obs = self.observer``
        #: makes ``obs`` an alias of ``observer``); ``None`` poisons a
        #: name that was also assigned something else.
        self._hook_aliases: Dict[str, Optional[str]] = {}

    # -- environment -----------------------------------------------------

    def _collect_env(self) -> None:
        """Flow-insensitive: join every assignment to a name.

        Reassignment with a different abstract value joins to unknown,
        which can only *suppress* findings — the conservative direction.
        """
        for stmt in ast.walk(self.node):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
                value = stmt.value
            elif isinstance(stmt, ast.AugAssign):
                targets = [stmt.target]
                value = None  # joins to unknown below
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                targets = [stmt.target]
                value = None
            if not targets:
                continue
            alias = None if value is None else self._receiver_terminal(value)
            for target in targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        self._assigned.add(name_node.id)
                        # Alias tracking for hook receivers: only a plain
                        # ``name = <receiver>`` binds; any other
                        # assignment to the same name poisons it.
                        bound = alias if name_node is target else None
                        if name_node.id in self._hook_aliases:
                            if self._hook_aliases[name_node.id] != bound:
                                self._hook_aliases[name_node.id] = None
                        else:
                            self._hook_aliases[name_node.id] = bound
            if value is None:
                for target in targets:
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            self._env[name_node.id] = _UNKNOWN
                continue
            abstract = self._eval(value, store=True)
            for target in targets:
                if isinstance(target, ast.Name):
                    previous = self._env.get(target.id)
                    self._env[target.id] = (
                        abstract if previous is None else _join(previous, abstract)
                    )
                else:
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            self._env[name_node.id] = _UNKNOWN

    # -- abstract evaluation ---------------------------------------------

    def _call_dimension(self, call: ast.Call) -> Optional[str]:
        """Dimension of a call's return value, when statically known."""
        dotted = _dotted_name(call.func, self.imports)
        if dotted is not None and dotted.startswith(UNITS_MODULE + "."):
            return CONSTRUCTOR_DIMENSIONS.get(dotted.rsplit(".", 1)[1])
        if isinstance(call.func, ast.Name):
            resolved = self.imports.resolve(call.func.id)
            if resolved is None and call.func.id in self.local_returns:
                return self.local_returns[call.func.id]
        return None

    def _eval(self, expr: ast.expr, store: bool = False) -> Dict[str, Any]:
        """Abstract value of an expression (``store``: for an assignment,
        so a literal comes out with ``via`` already bumped)."""
        literal = _numeric_literal(expr)
        if literal is not None:
            return _absval_raw(1 if store else 0, zero=literal == 0)
        if isinstance(expr, ast.Name):
            if expr.id in self._env:
                return self._env[expr.id]
            if expr.id in self.params and expr.id not in self._assigned:
                dim = self.param_dims.get(expr.id)
                if dim is not None:
                    return _absval_dim(dim)
                return {"k": "param", "name": expr.id}
            imported = self.imports.resolve(expr.id)
            if imported is not None:
                return {"k": "import", "name": imported}
            if expr.id in self.module_constants:
                value = dict(self.module_constants[expr.id])
                if value.get("k") == "raw":
                    value["via"] = 1
                return value
            return _UNKNOWN
        if isinstance(expr, ast.Attribute):
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in self.self_attr_dims
            ):
                return _absval_dim(self.self_attr_dims[expr.attr])
            return _UNKNOWN
        if isinstance(expr, ast.Call):
            dim = self._call_dimension(expr)
            if dim is not None:
                return _absval_dim(dim)
            return _UNKNOWN
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, (ast.USub, ast.UAdd)):
            return self._eval(expr.operand, store=store)
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr, store=store)
        if isinstance(expr, ast.IfExp):
            return _join(self._eval(expr.body, store=store),
                         self._eval(expr.orelse, store=store))
        return _UNKNOWN

    def _eval_binop(self, expr: ast.BinOp, store: bool = False) -> Dict[str, Any]:
        left = self._eval(expr.left, store=store)
        right = self._eval(expr.right, store=store)
        ldim = left.get("d") if left["k"] == "dim" else None
        rdim = right.get("d") if right["k"] == "dim" else None
        if isinstance(expr.op, (ast.Add, ast.Sub)):
            if ldim is not None and rdim is not None:
                if ldim == rdim:
                    return _absval_dim(ldim)
                return _UNKNOWN  # the SIM012 finding was emitted separately
            if left["k"] == "raw" and right["k"] == "raw":
                return _join(left, right)
            return _UNKNOWN
        if isinstance(expr.op, ast.Mult):
            if ldim is not None and rdim is None and right["k"] == "raw":
                return _absval_dim(ldim)
            if rdim is not None and ldim is None and left["k"] == "raw":
                return _absval_dim(rdim)
            if left["k"] == "raw" and right["k"] == "raw":
                return _join(left, right)
            return _UNKNOWN
        if isinstance(expr.op, ast.Div):
            if ldim is not None and rdim is None and right["k"] == "raw":
                return _absval_dim(ldim)
            if left["k"] == "raw" and right["k"] == "raw":
                return _join(left, right)
            return _UNKNOWN
        if left["k"] == "raw" and right["k"] == "raw":
            return _join(left, right)
        return _UNKNOWN

    # -- checks ----------------------------------------------------------

    def _check_binop(self, expr: ast.BinOp) -> None:
        left = self._eval(expr.left)
        right = self._eval(expr.right)
        if left["k"] != "dim" or right["k"] != "dim":
            return
        ldim, rdim = str(left["d"]), str(right["d"])
        line, col = _loc(expr)
        if isinstance(expr.op, (ast.Add, ast.Sub)):
            if ldim != rdim:
                verb = "adding" if isinstance(expr.op, ast.Add) else "subtracting"
                self.findings.append(
                    (
                        "SIM012",
                        line,
                        col,
                        f"{verb} {ldim} and {rdim}: dimensionally unsafe "
                        "arithmetic (convert one side explicitly)",
                    )
                )
        elif isinstance(expr.op, ast.Mult):
            if ldim == rdim == "bits_per_second":
                self.findings.append(
                    (
                        "SIM012",
                        line,
                        col,
                        "multiplying two rates (bits_per_second x "
                        "bits_per_second) has no physical meaning here",
                    )
                )

    def _seed_roots(self, expr: ast.expr) -> List[Tuple[str, str]]:
        """Roots of a seed expression: ("ok"|"bad"|"unknown", detail)."""
        if isinstance(expr, ast.Constant):
            if type(expr.value) in (int, float):
                return [("ok", "literal")]
            return [("unknown", "constant")]
        if isinstance(expr, ast.Name):
            if _SEEDISH_NAME_RE.search(expr.id):
                return [("ok", expr.id)]
            value = self._env.get(expr.id)
            if value is not None and value.get("k") == "raw":
                return [("ok", "literal")]
            return [("unknown", expr.id)]
        if isinstance(expr, ast.Attribute):
            if _SEEDISH_NAME_RE.search(expr.attr):
                return [("ok", expr.attr)]
            return [("unknown", expr.attr)]
        if isinstance(expr, ast.BinOp):
            return self._seed_roots(expr.left) + self._seed_roots(expr.right)
        if isinstance(expr, ast.UnaryOp):
            return self._seed_roots(expr.operand)
        if isinstance(expr, ast.Call):
            dotted = _dotted_name(expr.func, self.imports)
            name = dotted or (
                expr.func.id if isinstance(expr.func, ast.Name) else None
            )
            if name is not None:
                for root, reason in NONDETERMINISTIC_SEED_ROOTS.items():
                    if name == root or name.endswith("." + root):
                        return [("bad", f"{root}(): {reason}")]
                if name.startswith("time.") or name.startswith("datetime."):
                    return [("bad", f"{name}(): wall clock is not a seed")]
                if name in _SEED_TRANSPARENT_CALLS:
                    roots: List[Tuple[str, str]] = []
                    for arg in expr.args:
                        roots.extend(self._seed_roots(arg))
                    return roots or [("unknown", name)]
            return [("unknown", "call")]
        return [("unknown", type(expr).__name__)]

    def _check_rng_construction(self, call: ast.Call) -> None:
        dotted = _dotted_name(call.func, self.imports)
        if dotted not in ("random.Random", RANDOM_STREAMS):
            return
        if not call.args and not call.keywords:
            return  # SIM001's case, not ours
        seed_expr: Optional[ast.expr] = call.args[0] if call.args else None
        if seed_expr is None:
            for keyword in call.keywords:
                if keyword.arg in ("seed", "x"):
                    seed_expr = keyword.value
        if seed_expr is None:
            return
        bad = [detail for kind, detail in self._seed_roots(seed_expr) if kind == "bad"]
        if bad:
            line, col = _loc(call)
            target = dotted.rsplit(".", 1)[1]
            self.findings.append(
                (
                    "SIM013",
                    line,
                    col,
                    f"{target} seeded from nondeterministic entropy "
                    f"({'; '.join(bad)}): seeds must descend from a "
                    "component seed or repro.sim.random",
                )
            )

    @staticmethod
    def _receiver_terminal(expr: ast.expr) -> Optional[str]:
        """Direct hook-receiver terminal of an expression, if any."""
        if isinstance(expr, ast.Name) and expr.id in HOOK_RECEIVERS:
            return expr.id
        if isinstance(expr, ast.Attribute) and expr.attr in HOOK_RECEIVERS:
            return expr.attr
        return None

    def _hook_receiver(self, expr: ast.expr) -> Optional[str]:
        """Terminal identifier of an observer-ish hook receiver.

        Either a direct reference (``observer.on_x``, ``self.observer.on_x``)
        or a local alias hoisted out of a hot loop (``obs = self.observer``
        followed by ``obs.on_x(...)``) — batched drains do exactly that.
        """
        terminal = self._receiver_terminal(expr)
        if terminal is not None:
            return terminal
        if isinstance(expr, ast.Name):
            return self._hook_aliases.get(expr.id)
        return None

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
                literal = _numeric_literal(keyword.value)
                if literal is None:
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
            receiver = self._hook_receiver(func.value)
            if receiver is not None and func.attr.startswith("on_"):
                line, col = _loc(call)
                self.hook_calls.append(
                    {"method": func.attr, "receiver": receiver,
                     "line": line, "col": col}
                )
            if func.attr in _SCHED_METHODS and self._is_sim_receiver(
                func.value
            ):
                self._record_sched_call(call)
            callee = {"kind": "attr", "name": func.attr}
        if callee is None:
            return
        line, col = _loc(call)
        args = [self._eval(arg) for arg in call.args]
        kwargs = {
            keyword.arg: self._eval(keyword.value)
            for keyword in call.keywords
            if keyword.arg is not None
        }
        self.calls.append(
            {
                "callee": callee,
                "line": line,
                "col": col,
                "args": args,
                "kwargs": kwargs,
                "arg_locs": [list(_loc(arg)) for arg in call.args],
                "kwarg_locs": {
                    keyword.arg: list(_loc(keyword.value))
                    for keyword in call.keywords
                    if keyword.arg is not None
                },
            }
        )

    def scan(self) -> None:
        self._collect_env()
        for node in ast.walk(self.node):
            if node is not self.node and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                # Nested defs are scanned as their own functions.
                continue
            if isinstance(node, ast.BinOp):
                self._check_binop(node)
            elif isinstance(node, ast.Call):
                self._check_rng_construction(node)
                self._record_call(node)
            elif isinstance(node, ast.Return) and node.value is not None:
                value = self._eval(node.value)
                self.return_dims.append(
                    str(value["d"]) if value["k"] == "dim" else None
                )

    def returns_dim(self) -> Optional[str]:
        if not self.return_dims:
            return None
        dims = set(self.return_dims)
        if len(dims) == 1 and None not in dims:
            return self.return_dims[0]
        return None


def _function_params(node: ast.AST) -> List[str]:
    args = getattr(node, "args", None)
    if args is None:
        return []
    params = [a.arg for a in getattr(args, "posonlyargs", [])]
    params.extend(a.arg for a in args.args)
    return params


def _param_dims(node: ast.AST, imports: _ImportMap) -> Dict[str, str]:
    args = getattr(node, "args", None)
    if args is None:
        return {}
    dims: Dict[str, str] = {}
    for arg in list(getattr(args, "posonlyargs", [])) + list(args.args) + list(
        args.kwonlyargs
    ):
        dim = _annotation_dimension(arg.annotation, imports)
        if dim is not None:
            dims[arg.arg] = dim
    return dims


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


def _self_attr_dims(
    tree: ast.Module, imports: _ImportMap
) -> Dict[str, Dict[str, str]]:
    """Per-class ``self.<attr>`` dimensions, from ``__init__`` bodies.

    ``self.delay = delay`` where ``delay`` is an alias-annotated
    parameter gives ``Link.delay`` the ``seconds`` dimension for every
    other method of the class.
    """
    result: Dict[str, Dict[str, str]] = {}
    for qname, node, class_name in _iter_functions(tree):
        if class_name is None or not qname.endswith("__init__"):
            continue
        dims = _param_dims(node, imports)
        attr_dims: Dict[str, str] = {}
        for stmt in ast.walk(node):
            if not isinstance(stmt, ast.Assign):
                continue
            if not isinstance(stmt.value, ast.Name):
                continue
            dim = dims.get(stmt.value.id)
            if dim is None:
                continue
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attr_dims[target.attr] = dim
        if attr_dims:
            result.setdefault(class_name, {}).update(attr_dims)
    return result


def _module_constants(
    tree: ast.Module, imports: _ImportMap, local_returns: Dict[str, str]
) -> Dict[str, Dict[str, Any]]:
    """Abstract values of module-level simple assignments."""
    scanner = _FunctionScanner(
        module="", qname="<module>", node=tree, imports=imports,
        params=[], param_dims={}, module_constants={},
        local_returns=local_returns, self_attr_dims={}, is_method=False,
    )
    constants: Dict[str, Dict[str, Any]] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        abstract = scanner._eval(value, store=True)
        for target in targets:
            if isinstance(target, ast.Name):
                previous = constants.get(target.id)
                constants[target.id] = (
                    abstract if previous is None else _join(previous, abstract)
                )
    return constants


def _identifier_refs(tree: ast.Module) -> Set[str]:
    """Every identifier the file references (names, attributes, keyword
    argument names) — minus def-statement names, which are definitions."""
    refs: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            refs.add(node.arg)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                refs.add(alias.asname or alias.name)
    return refs


def build_summary(path: str, source: str) -> Dict[str, Any]:
    """Build the phase-1 summary for one file.

    A file that fails to parse yields a summary with a single SIM000
    local finding, so the semantic pass degrades exactly like simlint.
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
            "module_constants": {},
            "hook_defs": [],
            "handler_defs": [],
            "refs": [],
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

    # Pass A: local return dimensions (units-style helpers defined here).
    local_returns: Dict[str, str] = {}
    for qname, node, class_name in _iter_functions(tree):
        if class_name is not None:
            continue
        scanner = _FunctionScanner(
            module, qname, node, imports, _function_params(node),
            _param_dims(node, imports), {}, {}, {}, is_method=False,
        )
        scanner.scan()
        dim = scanner.returns_dim()
        if dim is not None:
            local_returns[qname] = dim

    attr_dims_by_class = _self_attr_dims(tree, imports)
    constants = _module_constants(tree, imports, local_returns)

    functions: Dict[str, Dict[str, Any]] = {}
    local_findings: List[List[Any]] = []
    hook_calls_all: List[Dict[str, Any]] = []
    classes: Dict[str, Dict[str, Any]] = {}
    hook_defs: List[Dict[str, Any]] = []
    handler_defs: List[Dict[str, Any]] = []

    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods: Dict[str, int] = {}
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods[item.name] = item.lineno
                    if item.name.startswith("on_"):
                        hook_defs.append(
                            {"class": node.name, "method": item.name,
                             "line": item.lineno}
                        )
            classes[node.name] = {"line": node.lineno, "methods": methods}

    for qname, node, class_name in _iter_functions(tree):
        params = _function_params(node)
        is_method = class_name is not None and bool(params) and params[0] in (
            "self", "cls"
        )
        scanner = _FunctionScanner(
            module, qname, node, imports, params,
            _param_dims(node, imports), constants, local_returns,
            attr_dims_by_class.get(class_name or "", {}), is_method,
        )
        scanner.scan()
        functions[qname] = {
            "params": params,
            "param_dims": _param_dims(node, imports),
            "is_method": is_method,
            "class": class_name,
            "calls": scanner.calls,
            "sched_calls": scanner.sched_calls,
            "cost": _collect_cost(node),
        }
        local_findings.extend(
            [code, line, col, message]
            for code, line, col, message in scanner.findings
        )
        hook_calls_all.extend(scanner.hook_calls)
        name = qname.rsplit(".", 1)[-1]
        if HANDLER_NAME_RE.search(name):
            handler_defs.append(
                {"qname": qname, "name": name, "line": node.lineno}
            )

    # Module-level statements (constants already harvested; calls at
    # module level — rare — are scanned as a pseudo-function).
    module_scanner = _FunctionScanner(
        module, "<module>", tree, imports, [], {}, constants,
        local_returns, {}, is_method=False,
    )
    for stmt in tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.BinOp):
                    module_scanner._check_binop(sub)
                elif isinstance(sub, ast.Call):
                    module_scanner._check_rng_construction(sub)
                    module_scanner._record_call(sub)
    if module_scanner.calls or module_scanner.findings:
        functions["<module>"] = {
            "params": [],
            "param_dims": {},
            "is_method": False,
            "class": None,
            "calls": module_scanner.calls,
            "sched_calls": module_scanner.sched_calls,
        }
        local_findings.extend(
            [code, line, col, message]
            for code, line, col, message in module_scanner.findings
        )
        hook_calls_all.extend(module_scanner.hook_calls)

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
        "module_constants": constants,
        "hook_defs": hook_defs,
        "hook_calls": hook_calls_all,
        "handler_defs": handler_defs,
        "refs": sorted(_identifier_refs(tree)),
        "suppressions": suppression_map,
        "perf_pragmas": perf_pragmas,
        "local_findings": local_findings,
    }


__all__ = [
    "PERF_PRAGMA_RE",
    "HANDLER_NAME_RE",
    "build_summary",
    "module_name_for_path",
]

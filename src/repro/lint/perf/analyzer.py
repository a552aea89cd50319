"""The simperf join pass: SIM019 and SIM020 over the per-file summaries.

Phase 1 (shared with simsem/simrace) already recorded, per function,
every allocation site and in-loop attribute chain — see ``summary.py``'s
cost records.  This module joins those records against the hot-path
registry (:mod:`repro.lint.perf.hotpaths`) and emits findings:

* **SIM019** — an allocation site inside a registered hot function,
  unless the line carries ``# simperf: allow-alloc(<reason>)``;
* **SIM020** — a ≥2-deep attribute chain resolved inside a loop of a
  hot function (each iteration pays the full lookup; pre-bind it).

What a hot function's *callees* allocate is measured, not inferred: the
``REPRO_ALLOC`` sanitizer sees the whole callback's allocation and the
smoke fails on an allocator this module cannot explain.  The same module
therefore also computes the *explained allocator* closure the sanitizer
cross-checks against: a hot function observed allocating at runtime is
explained iff a static allocation site (waived or not) is reachable from
it through the summary call graph.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.core import Finding
from repro.lint.perf.hotpaths import HotPathRegistry
from repro.lint.registry import PROJECT_SEVERITIES as _SEVERITIES

#: How many call hops the explained-allocator closure follows.  Depth 4
#: covers the deepest real chain in the tree today
#: (_on_packet -> _try_send -> _transmit -> make_data_packet -> Packet).
_EXPLAIN_DEPTH = 4

_ALLOC_KIND_LABELS = {
    "call": "allocating call",
    "display": "container display",
    "comprehension": "comprehension",
    "fstring": "f-string",
    "str-concat": "string concatenation",
    "lambda": "lambda",
    "closure": "nested function",
}


class _PerfProgram:
    """Whole-program tables the perf join checks against."""

    def __init__(self, summaries: Sequence[Dict[str, Any]]) -> None:
        #: dotted function qname -> (summary, function record)
        self.functions: Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]] = {}
        #: bare callable name -> dotted qnames defining it
        self.by_name: Dict[str, List[str]] = {}
        for summary in summaries:
            module = str(summary["module"])
            for qname, record in summary.get("functions", {}).items():
                if qname == "<module>":
                    continue
                dotted = f"{module}.{qname}"
                self.functions[dotted] = (summary, record)
                self.by_name.setdefault(qname.rsplit(".", 1)[-1], []).append(
                    dotted
                )

    def waived(self, summary: Dict[str, Any], line: int) -> bool:
        return str(line) in summary.get("perf_pragmas", {})


# -- SIM019 / SIM020: per-hot-function records ---------------------------


def _check_hot_records(
    program: _PerfProgram, registry: HotPathRegistry
) -> List[Finding]:
    findings: List[Finding] = []
    for dotted, (summary, record) in sorted(program.functions.items()):
        if dotted not in registry:
            continue
        path = str(summary["path"])
        cost = record.get("cost") or {}
        for alloc in cost.get("allocs", []):
            line = int(alloc["line"])
            if program.waived(summary, line):
                continue
            kind = str(alloc.get("kind", ""))
            label = _ALLOC_KIND_LABELS.get(kind, kind)
            detail = str(alloc.get("detail", ""))
            what = f"{label} ({detail})" if detail else label
            where = "inside a loop of" if alloc.get("in_loop") else "in"
            findings.append(
                Finding(
                    path=path,
                    line=line,
                    col=int(alloc["col"]),
                    code="SIM019",
                    message=(
                        f"{what} {where} hot function {dotted} — "
                        f"registered hot: {registry.reason(dotted)}; hoist "
                        "it off the per-event path or waive the line with "
                        "`# simperf: allow-alloc(<reason>)`"
                    ),
                    severity=_SEVERITIES["SIM019"],
                )
            )
        for chain in cost.get("attr_chains", []):
            count = int(chain.get("count", 1))
            times = f"{count} time(s) per iteration"
            findings.append(
                Finding(
                    path=path,
                    line=int(chain["line"]),
                    col=int(chain["col"]),
                    code="SIM020",
                    message=(
                        f"attribute chain '{chain['chain']}' is resolved "
                        f"{times} inside a loop of hot function {dotted}; "
                        "pre-bind it to a local before the loop"
                    ),
                    severity=_SEVERITIES["SIM020"],
                )
            )
    return findings


# -- entry points --------------------------------------------------------


def check_perf(
    summaries: Sequence[Dict[str, Any]],
    registry: Optional[HotPathRegistry] = None,
) -> List[Finding]:
    """All simperf findings for the analyzed summaries."""
    registry = registry if registry is not None else HotPathRegistry.load()
    findings = _check_hot_records(_PerfProgram(summaries), registry)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def explained_hot_functions(
    summaries: Sequence[Dict[str, Any]],
    registry: Optional[HotPathRegistry] = None,
) -> Set[str]:
    """Hot functions whose runtime allocations have a static explanation.

    A hot function is *explained* when an allocation site — waived or
    not — is reachable from it through the summary call graph within
    :data:`_EXPLAIN_DEPTH` hops.  Resolution is generous (attribute
    calls fan out to every candidate): the sanitizer uses this set to
    decide which dynamically observed allocations are *unexplained*, so
    false ambiguity must not manufacture false alarms.
    """
    registry = registry if registry is not None else HotPathRegistry.load()
    program = _PerfProgram(summaries)

    def _allocates(dotted: str) -> bool:
        _summary, record = program.functions[dotted]
        return bool((record.get("cost") or {}).get("allocs"))

    def _callees(dotted: str) -> Set[str]:
        summary, record = program.functions[dotted]
        out: Set[str] = set()
        for call in record.get("calls", []):
            callee = call.get("callee") or {}
            kind = callee.get("kind")
            name = str(callee.get("name", ""))
            if kind == "local":
                local = f'{summary["module"]}.{name}'
                if local in program.functions:
                    out.add(local)
            elif kind == "dotted":
                if name in program.functions:
                    out.add(name)
            elif kind == "attr":
                out.update(program.by_name.get(name, []))
        return out

    explained: Set[str] = set()
    for hot, _reason in registry.items():
        if hot not in program.functions:
            continue
        frontier = {hot}
        visited: Set[str] = set()
        for _hop in range(_EXPLAIN_DEPTH + 1):
            if any(_allocates(d) for d in frontier):
                explained.add(hot)
                break
            visited.update(frontier)
            frontier = {
                callee
                for dotted in frontier
                for callee in _callees(dotted)
                if callee not in visited
            }
            if not frontier:
                break
    return explained


__all__ = [
    "check_perf",
    "explained_hot_functions",
]

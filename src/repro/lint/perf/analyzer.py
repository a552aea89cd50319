"""The simperf join pass: SIM019–SIM023 over the v4 summaries.

Phase 1 (shared with simsem/simrace) already recorded, per function,
every allocation site, in-loop global load, in-loop attribute chain and
kwargs/dunder call — see ``summary.py``'s cost records.  This module
joins those records against the hot-path registry
(:mod:`repro.lint.perf.hotpaths`) and, for SIM022, against recorded
``repro.obs`` telemetry, and emits findings:

* **SIM019** — an allocation site inside a registered hot function,
  unless the line carries ``# simperf: allow-alloc(<reason>)``;
* **SIM020** — a ≥2-deep attribute chain resolved inside a loop of a
  hot function (each iteration pays the full lookup; pre-bind it);
* **SIM021** — a hot function calling a non-hot callee whose own cost
  record shows unwaived allocations (one transitive hop, simsem-style
  resolution: unresolvable or ambiguous callees are never guessed);
* **SIM022** — registry drift: telemetry shows a callback above the
  wall-time share threshold that ``hotpaths.toml`` does not register;
* **SIM023** — ``**kwargs`` / ``*args`` unpacking or explicit dunder
  calls in a hot function (each builds a dict/tuple or takes the slow
  lookup path per event).

The same module also computes the *explained allocator* closure the
``REPRO_ALLOC`` sanitizer cross-checks against: a hot function observed
allocating at runtime is explained iff a static allocation site (waived
or not) is reachable from it through the summary call graph.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.core import Finding
from repro.lint.perf.hotpaths import HotPathRegistry
from repro.lint.registry import PROJECT_SEVERITIES as _SEVERITIES

#: SIM022 threshold: a component must exceed this share of total
#: callback wall time in a recorded profile before registry membership
#: is demanded.
TELEMETRY_SHARE_THRESHOLD = 0.05

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
        self.summaries = list(summaries)
        #: dotted function qname -> (summary, function record)
        self.functions: Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]] = {}
        #: bare callable name -> dotted qnames defining it
        self.by_name: Dict[str, List[str]] = {}
        for summary in self.summaries:
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

    def unwaived_allocs(self, dotted: str) -> List[Dict[str, Any]]:
        summary, record = self.functions[dotted]
        cost = record.get("cost") or {}
        return [
            alloc
            for alloc in cost.get("allocs", [])
            if not self.waived(summary, int(alloc["line"]))
        ]

    def resolve_call(
        self, caller: str, call: Dict[str, Any]
    ) -> Optional[str]:
        """The analyzed function a call definitely lands in, or None.

        Local names resolve within the caller's module; dotted names are
        import-resolved by phase 1; attribute calls resolve only for a
        literal ``self.`` receiver, to a method of the caller's own
        class.  Everything else is skipped — an unknown receiver could
        be a builtin container (``set.update``), so bare-name matching
        would guess, and this pass never guesses.
        """
        summary, _record = self.functions[caller]
        callee = call.get("callee") or {}
        kind = callee.get("kind")
        name = str(callee.get("name", ""))
        if kind == "local":
            dotted = f'{summary["module"]}.{name}'
            return dotted if dotted in self.functions else None
        if kind == "dotted":
            return name if name in self.functions else None
        if kind == "attr" and callee.get("self"):
            prefix = caller.rsplit(".", 1)[0]
            dotted = f"{prefix}.{name}"
            return dotted if dotted in self.functions else None
        return None


def _build(summaries: Sequence[Dict[str, Any]]) -> _PerfProgram:
    return _PerfProgram(summaries)


# -- SIM019 / SIM020 / SIM023: per-hot-function records ------------------


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
                        "pre-bind it to a local before the loop (the "
                        "Link._rebind idiom)"
                    ),
                    severity=_SEVERITIES["SIM020"],
                )
            )
        for call in cost.get("kwargs_calls", []):
            line = int(call["line"])
            if program.waived(summary, line):
                continue
            kind = str(call.get("kind", ""))
            callee = str(call.get("callee", "")) or "<call>"
            if kind == "kwargs":
                detail = (
                    f"call to {callee} with **kwargs builds a fresh dict "
                    "per event"
                )
            elif kind == "star-args":
                detail = (
                    f"call to {callee} with *-unpacking builds a fresh "
                    "tuple per event"
                )
            else:
                detail = (
                    f"explicit dunder call {callee} takes the slow "
                    "attribute path; use the operator or a pre-bound "
                    "method"
                )
            findings.append(
                Finding(
                    path=path,
                    line=line,
                    col=int(call["col"]),
                    code="SIM023",
                    message=f"{detail} in hot function {dotted}",
                    severity=_SEVERITIES["SIM023"],
                )
            )
    return findings


# -- SIM021: one-hop transitive allocation -------------------------------


def _check_transitive(
    program: _PerfProgram, registry: HotPathRegistry
) -> List[Finding]:
    findings: List[Finding] = []
    for dotted, (summary, record) in sorted(program.functions.items()):
        if dotted not in registry:
            continue
        path = str(summary["path"])
        seen: Set[Tuple[str, int]] = set()
        for call in record.get("calls", []):
            line = int(call.get("line", 1))
            if program.waived(summary, line):
                continue
            target = program.resolve_call(dotted, call)
            if target is None or target == dotted or target in registry:
                continue
            allocs = program.unwaived_allocs(target)
            if not allocs or (target, line) in seen:
                continue
            seen.add((target, line))
            target_summary, _ = program.functions[target]
            first = allocs[0]
            findings.append(
                Finding(
                    path=path,
                    line=line,
                    col=int(call.get("col", 0)),
                    code="SIM021",
                    message=(
                        f"hot function {dotted} calls {target}, which "
                        f"allocates ({len(allocs)} unwaived site(s), e.g. "
                        f"{target_summary['path']}:{first['line']}); "
                        "register the callee in hotpaths.toml, hoist the "
                        "call, or waive this line with "
                        "`# simperf: allow-alloc(<reason>)`"
                    ),
                    severity=_SEVERITIES["SIM021"],
                )
            )
    return findings


# -- SIM022: telemetry registry drift ------------------------------------


def _profile_shares(telemetry: Path) -> Dict[str, float]:
    """Max observed wall-time share per dotted component across records."""
    shares: Dict[str, float] = {}
    try:
        text = telemetry.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read telemetry {telemetry}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{telemetry}:{lineno}: not JSONL ({exc})"
            ) from exc
        profile = record.get("profile") if isinstance(record, dict) else None
        if not isinstance(profile, dict):
            continue  # cached runs carry profile: null
        total = float(profile.get("callback_wall_s") or 0.0)
        if total <= 0.0:
            continue
        for component in profile.get("components", []):
            name = str(component.get("component", ""))
            if not name:
                continue
            dotted = name if name.startswith("repro.") else f"repro.{name}"
            share = float(component.get("wall_s", 0.0)) / total
            if share > shares.get(dotted, 0.0):
                shares[dotted] = share
    return shares


def _check_telemetry(
    program: _PerfProgram,
    registry: HotPathRegistry,
    telemetry: Path,
) -> List[Finding]:
    findings: List[Finding] = []
    for dotted, share in sorted(_profile_shares(telemetry).items()):
        if share < TELEMETRY_SHARE_THRESHOLD or dotted in registry:
            continue
        entry = program.functions.get(dotted)
        if entry is not None:
            summary, record = entry
            path, line = str(summary["path"]), int(record.get("line", 1))
        else:
            path, line = registry.origin, 1
        findings.append(
            Finding(
                path=path,
                line=line,
                col=0,
                code="SIM022",
                message=(
                    f"telemetry shows {dotted} at {share:.0%} of callback "
                    f"wall-time (threshold "
                    f"{TELEMETRY_SHARE_THRESHOLD:.0%}) but hotpaths.toml "
                    "does not register it; add an entry so the hot-path "
                    "rules cover it"
                ),
                severity=_SEVERITIES["SIM022"],
            )
        )
    return findings


# -- entry points --------------------------------------------------------


def check_perf(
    summaries: Sequence[Dict[str, Any]],
    registry: Optional[HotPathRegistry] = None,
    telemetry: Optional[Path] = None,
) -> List[Finding]:
    """All simperf findings for the analyzed summaries."""
    registry = registry if registry is not None else HotPathRegistry.load()
    program = _build(summaries)
    findings = _check_hot_records(program, registry)
    findings.extend(_check_transitive(program, registry))
    if telemetry is not None:
        findings.extend(_check_telemetry(program, registry, telemetry))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def explained_hot_functions(
    summaries: Sequence[Dict[str, Any]],
    registry: Optional[HotPathRegistry] = None,
) -> Set[str]:
    """Hot functions whose runtime allocations have a static explanation.

    A hot function is *explained* when an allocation site or
    kwargs/star-args call — waived or not — is reachable from it through
    the summary call graph within :data:`_EXPLAIN_DEPTH` hops.  Unlike
    SIM021, resolution here is generous (attribute calls fan out to
    every candidate): the sanitizer uses this set to decide which
    dynamically observed allocations are *unexplained*, so false
    ambiguity must not manufacture false alarms.
    """
    registry = registry if registry is not None else HotPathRegistry.load()
    program = _build(summaries)

    def _allocates(dotted: str) -> bool:
        _summary, record = program.functions[dotted]
        cost = record.get("cost") or {}
        return bool(cost.get("allocs")) or bool(cost.get("kwargs_calls"))

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
    "TELEMETRY_SHARE_THRESHOLD",
    "check_perf",
    "explained_hot_functions",
]

"""The static side of simrace: join-phase race checks (SIM016–SIM018).

Runs over the same whole-program summary set simsem builds (phase 1 is
shared; this module is phase 2b).  The raw material is the v3 summary
extensions: per-function ``sched_calls`` records (scheduler method,
delay source text, priority classification, callback shape) and per
function ``self_reads``/``self_writes`` attribute sets, closed over
intra-class ``self.m()`` calls.

Same-instant approximation
--------------------------

"Two callbacks can share an instant" is undecidable in general; the
pass uses a deliberately narrow, low-noise approximation: two scheduler
calls *in the same function* whose delay expressions have identical
source text and whose effective priorities resolve to the same tier
value.  Receiver identity is textual too — ``flow3.stop`` and
``flow4.stop`` are different instances and never conflict; two
``self.x`` callbacks (or two calls through the same receiver text)
share state.  Unknown receivers, unresolvable callbacks and
unresolvable priorities are skipped: the pass never guesses.

SIM018 is the sampler-bug shape: a *periodic* callback — a method that
reschedules itself — scheduled at the default or a bare-literal
priority.  Periodic ticks land on unboundedly many instants, so their
ordering against model events must be a named tier from
:mod:`repro.sim.priorities`.  A bare literal that happens to equal a
named nonzero tier is flagged everywhere (spell the name).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.core import Finding
from repro.lint.registry import PROJECT_SEVERITIES as _SEVERITIES
from repro.sim.priorities import PRIORITIES_MODULE, TIERS, tier_name

_CLOSURE_ROUNDS = 8  # intra-class self-call fixpoint bound


def _priority_value(priority: Dict[str, Any]) -> Optional[int]:
    """The effective tier value of a priority record, if resolvable."""
    kind = priority.get("kind")
    if kind == "default":
        return 0
    if kind == "literal":
        return int(priority["value"])
    if kind == "named":
        name = str(priority.get("name", ""))
        if name.startswith(PRIORITIES_MODULE + "."):
            return TIERS.get(name.rsplit(".", 1)[1])
    return None


def _priority_label(priority: Dict[str, Any]) -> str:
    kind = priority.get("kind")
    if kind == "default":
        return "default priority 0"
    if kind == "literal":
        return f"bare literal priority {priority['value']}"
    if kind == "named":
        return f"priority {priority['name']}"
    return "an unresolved priority"


class _RaceTables:
    """Whole-program tables the race checks consume."""

    def __init__(self, summaries: List[Dict[str, Any]]) -> None:
        #: dotted method qname -> (reads, writes), self-call closed.
        self.rw: Dict[str, Tuple[FrozenSet[str], FrozenSet[str]]] = {}
        #: simple method name -> dotted class names defining it.
        self.classes_by_method: Dict[str, Set[str]] = {}
        #: dotted method qnames that reschedule themselves (periodic).
        self.periodic: Set[str] = set()
        self._build(summaries)

    def _build(self, summaries: List[Dict[str, Any]]) -> None:
        reads: Dict[str, Set[str]] = {}
        writes: Dict[str, Set[str]] = {}
        self_calls: Dict[str, Set[str]] = {}
        for summary in summaries:
            module = str(summary["module"])
            for class_name, record in summary.get("classes", {}).items():
                for method in record.get("methods", {}):
                    self.classes_by_method.setdefault(method, set()).add(
                        f"{module}.{class_name}"
                    )
            for qname, record in summary.get("functions", {}).items():
                class_name = record.get("class")
                if class_name is None:
                    continue
                parts = qname.split(".")
                if len(parts) < 2 or parts[0] != class_name:
                    continue
                # Nested defs fold into their enclosing method: a closure
                # runs with the method's ``self``, so its accesses belong
                # to the method's footprint (the outer scan already
                # includes nested bodies; this keys them consistently).
                dotted = f"{module}.{parts[0]}.{parts[1]}"
                reads.setdefault(dotted, set()).update(
                    record.get("self_reads", [])
                )
                writes.setdefault(dotted, set()).update(
                    record.get("self_writes", [])
                )
                targets = self_calls.setdefault(dotted, set())
                for call in record.get("calls", []):
                    callee = call.get("callee") or {}
                    if callee.get("kind") == "attr" and callee.get("self"):
                        targets.add(f"{module}.{parts[0]}.{callee['name']}")
                enclosing_method = parts[1]
                for sched in record.get("sched_calls", []):
                    callback = sched.get("callback", {})
                    if (
                        callback.get("kind") == "self"
                        and callback.get("method") == enclosing_method
                    ):
                        self.periodic.add(dotted)
        # Close read/write sets over intra-class self calls: a callback
        # touching state through a helper still touches it.
        for _ in range(_CLOSURE_ROUNDS):
            changed = False
            for dotted, targets in self_calls.items():
                for target in targets:
                    if target not in reads and target not in writes:
                        continue
                    for table in (reads, writes):
                        mine = table.setdefault(dotted, set())
                        extra = table.get(target, set()) - mine
                        if extra:
                            mine.update(extra)
                            changed = True
            if not changed:
                break
        for dotted in set(reads) | set(writes):
            self.rw[dotted] = (
                frozenset(reads.get(dotted, set())),
                frozenset(writes.get(dotted, set())),
            )

    def resolve_callback(
        self, module: str, class_name: Optional[str], callback: Dict[str, Any]
    ) -> Optional[str]:
        """Dotted method qname a scheduled callback lands on, or ``None``.

        ``self.m`` resolves through the enclosing class; ``recv.m``
        resolves only when exactly one analyzed class defines ``m``
        (unknown receivers never guess).
        """
        kind = callback.get("kind")
        if kind == "self" and class_name is not None:
            return f"{module}.{class_name}.{callback['method']}"
        if kind == "recv":
            method = str(callback.get("method", ""))
            candidates = self.classes_by_method.get(method, set())
            if len(candidates) == 1:
                return f"{next(iter(candidates))}.{method}"
        return None


def _receiver_key(callback: Dict[str, Any]) -> Optional[str]:
    """Textual identity of the instance a callback is bound to."""
    kind = callback.get("kind")
    if kind == "self":
        return "self"
    if kind == "recv" and callback.get("recv"):
        return str(callback["recv"])
    return None


def _check_pairs(
    tables: _RaceTables,
    summary: Dict[str, Any],
    record: Dict[str, Any],
    findings: List[Finding],
) -> None:
    """SIM016/SIM017 over one function's same-instant clusters."""
    module = str(summary["module"])
    class_name = record.get("class")
    clusters: Dict[Tuple[str, int], List[Dict[str, Any]]] = {}
    for sched in record.get("sched_calls", []):
        delay_src = sched.get("delay_src")
        value = _priority_value(sched.get("priority", {}))
        if delay_src is None or value is None:
            continue
        clusters.setdefault((delay_src, value), []).append(sched)
    for (delay_src, value), group in sorted(clusters.items()):
        if len(group) < 2:
            continue
        group = sorted(group, key=lambda s: (s["line"], s["col"]))
        for i, first in enumerate(group):
            for second in group[i + 1:]:
                receiver = _receiver_key(first["callback"])
                if receiver is None or receiver != _receiver_key(
                    second["callback"]
                ):
                    continue
                target_a = tables.resolve_callback(
                    module, class_name, first["callback"]
                )
                target_b = tables.resolve_callback(
                    module, class_name, second["callback"]
                )
                if target_a is None or target_b is None or target_a == target_b:
                    continue
                rw_a = tables.rw.get(target_a)
                rw_b = tables.rw.get(target_b)
                if rw_a is None or rw_b is None:
                    continue
                reads_a, writes_a = rw_a
                reads_b, writes_b = rw_b
                instant = (
                    f"scheduled at one instant (delay {delay_src!r}, "
                    f"priority {value})"
                )
                write_write = sorted(writes_a & writes_b)
                if write_write:
                    findings.append(
                        Finding(
                            path=str(summary["path"]),
                            line=int(second["line"]),
                            col=int(second["col"]),
                            code="SIM016",
                            message=(
                                f"same-instant write-write hazard: "
                                f"{target_a} and {target_b} are {instant} "
                                f"and both rebind "
                                f"{', '.join(repr(a) for a in write_write)}; "
                                "the surviving value depends on insertion "
                                "order"
                            ),
                            severity=_SEVERITIES["SIM016"],
                        )
                    )
                    continue
                crossed = sorted(
                    (reads_a & writes_b) | (writes_a & reads_b)
                )
                if crossed:
                    findings.append(
                        Finding(
                            path=str(summary["path"]),
                            line=int(second["line"]),
                            col=int(second["col"]),
                            code="SIM017",
                            message=(
                                f"seq-order dependence: {target_a} and "
                                f"{target_b} are {instant} and one reads "
                                f"{', '.join(repr(a) for a in crossed)} "
                                "while the other writes it; swapping their "
                                "insertion order changes the outcome"
                            ),
                            severity=_SEVERITIES["SIM017"],
                        )
                    )


def _check_priorities(
    tables: _RaceTables,
    summary: Dict[str, Any],
    record: Dict[str, Any],
    findings: List[Finding],
) -> None:
    """SIM018 over one function's scheduler calls."""
    module = str(summary["module"])
    class_name = record.get("class")
    for sched in record.get("sched_calls", []):
        priority = sched.get("priority", {})
        kind = priority.get("kind")
        if kind == "literal":
            value = int(priority["value"])
            named = tier_name(value)
            if named is not None and value != 0:
                findings.append(
                    Finding(
                        path=str(summary["path"]),
                        line=int(sched["line"]),
                        col=int(sched["col"]),
                        code="SIM018",
                        message=(
                            f"priority {value} is the {named} tier spelled "
                            f"as a bare literal; import {named} from "
                            "repro.sim.priorities so the tier is checkable"
                        ),
                        severity=_SEVERITIES["SIM018"],
                    )
                )
                continue
        if kind not in ("default", "literal"):
            continue
        target = tables.resolve_callback(
            module, class_name, sched.get("callback", {})
        )
        if target is None or target not in tables.periodic:
            continue
        findings.append(
            Finding(
                path=str(summary["path"]),
                line=int(sched["line"]),
                col=int(sched["col"]),
                code="SIM018",
                message=(
                    f"periodic callback {target} is scheduled at "
                    f"{_priority_label(priority)}: its ticks share "
                    "instants with model events, so the tier must be "
                    "named from repro.sim.priorities (the sampler-bug "
                    "shape)"
                ),
                severity=_SEVERITIES["SIM018"],
            )
        )


def check_races(summaries: List[Dict[str, Any]]) -> List[Finding]:
    """Run SIM016–SIM018 over a whole-program summary set."""
    tables = _RaceTables(summaries)
    findings: List[Finding] = []
    for summary in summaries:
        for _qname, record in sorted(summary.get("functions", {}).items()):
            _check_pairs(tables, summary, record, findings)
            _check_priorities(tables, summary, record, findings)
    return findings


__all__ = ["check_races"]

"""The static side of simrace: the priority-tier check (SIM018).

Runs over the same whole-program summary set simsem builds (phase 1 is
shared; this module is phase 2b).  The raw material is the per-function
``sched_calls`` records: priority classification and callback shape of
every ``schedule()``/``post()``/``schedule_at()``/``post_at()`` call.

SIM018 is the sampler-bug shape: a *periodic* callback — a method that
reschedules itself — scheduled at the default or a bare-literal
priority.  Periodic ticks land on unboundedly many instants, so their
ordering against model events must be a named tier from
:mod:`repro.sim.priorities`.  A bare literal that happens to equal a
named nonzero tier is flagged everywhere (spell the name).  Unknown
receivers and unresolvable callbacks are skipped: the pass never guesses.

Whether two callbacks that *do* share an instant conflict is not
decided statically (the retired SIM016/SIM017 saw only same-function,
textually-identical-delay pairs): :class:`~repro.lint.race.runtime.
RaceMonitor` diffs every same-instant batch of the golden scenarios in
``python -m repro.lint.smoke``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.lint.core import Finding
from repro.lint.registry import PROJECT_SEVERITIES as _SEVERITIES
from repro.sim.priorities import tier_name


def _priority_label(priority: Dict[str, Any]) -> str:
    if priority.get("kind") == "default":
        return "default priority 0"
    return f"bare literal priority {priority['value']}"


class _RaceTables:
    """Whole-program tables the race check consumes."""

    def __init__(self, summaries: List[Dict[str, Any]]) -> None:
        #: simple method name -> dotted class names defining it.
        self.classes_by_method: Dict[str, Set[str]] = {}
        #: dotted method qnames that reschedule themselves (periodic).
        self.periodic: Set[str] = set()
        for summary in summaries:
            module = str(summary["module"])
            for class_name, record in summary.get("classes", {}).items():
                for method in record.get("methods", {}):
                    self.classes_by_method.setdefault(method, set()).add(
                        f"{module}.{class_name}"
                    )
            for qname, record in summary.get("functions", {}).items():
                parts = qname.split(".")
                if len(parts) < 2 or parts[0] != record.get("class"):
                    continue
                # Nested defs fold into their enclosing method: a closure
                # that reschedules the method makes the method periodic.
                for sched in record.get("sched_calls", []):
                    callback = sched.get("callback", {})
                    if (
                        callback.get("kind") == "self"
                        and callback.get("method") == parts[1]
                    ):
                        self.periodic.add(f"{module}.{parts[0]}.{parts[1]}")

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
    """Run SIM018 over a whole-program summary set."""
    tables = _RaceTables(summaries)
    findings: List[Finding] = []
    for summary in summaries:
        for _qname, record in sorted(summary.get("functions", {}).items()):
            _check_priorities(tables, summary, record, findings)
    return findings


__all__ = ["check_races"]

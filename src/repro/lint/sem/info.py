"""Descriptors for the semantic rules SIM011–SIM015.

The semantic pass is not built from per-node :class:`~repro.lint.core.Rule`
subclasses — its findings come out of whole-program analysis — but the
CLI (``--list-rules``, ``--select``/``--ignore``) and the docs still need
one catalog entry per code.  These descriptors are that entry; the
unified registry (:mod:`repro.lint.registry`) merges them with the
syntactic rule classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.lint.core import Severity


@dataclass(frozen=True)
class SemRuleInfo:
    """Catalog metadata for one semantic (cross-module) rule."""

    code: str
    name: str
    severity: Severity
    rationale: str


SEM_RULE_INFOS: Tuple[SemRuleInfo, ...] = (
    SemRuleInfo(
        code="SIM011",
        name="unit-sink-mismatch",
        severity=Severity.ERROR,
        rationale=(
            "a value of one dimension (or a raw literal travelling through "
            "assignments) reaches a parameter declared to take another; "
            "seconds-vs-bytes mixups shift every figure silently"
        ),
    ),
    SemRuleInfo(
        code="SIM012",
        name="unit-unsafe-arithmetic",
        severity=Severity.ERROR,
        rationale=(
            "adding values of different dimensions, or multiplying two "
            "rates, is dimensionally meaningless; the result poisons every "
            "downstream quantity"
        ),
    ),
    SemRuleInfo(
        code="SIM013",
        name="seed-provenance",
        severity=Severity.ERROR,
        rationale=(
            "an RNG seeded from hash()/id()/pid-like entropy is "
            "nondeterministic across processes even though it LOOKS seeded; "
            "seeds must descend from a component seed or repro.sim.random"
        ),
    ),
    SemRuleInfo(
        code="SIM014",
        name="hook-conformance",
        severity=Severity.ERROR,
        rationale=(
            "an observer hook call no observer class defines (or a defined "
            "hook nothing ever fires) is silent protocol drift between the "
            "model and the probe seam (repro.sim.probe and its probes)"
        ),
    ),
    SemRuleInfo(
        code="SIM015",
        name="dead-event-handler",
        severity=Severity.WARNING,
        rationale=(
            "a handler-named callable nothing references can never be "
            "reached from any schedule() site; it is either dead code or a "
            "wiring bug"
        ),
    ),
)

SEM_CODES: Tuple[str, ...] = tuple(info.code for info in SEM_RULE_INFOS)


__all__ = ["SemRuleInfo", "SEM_RULE_INFOS", "SEM_CODES"]

"""Phase 2: the whole-program joins over the per-file summaries.

Given one summary per file (:mod:`repro.lint.sem.summary`), this module
replays each file's locally decided findings (a syntax error is SIM000)
and runs the two joins that need the whole tree:

* **SIM018**, the priority-tier check (:mod:`repro.lint.race.analyzer`);
* **SIM019/SIM020**, the hot-path cost check against ``hotpaths.toml``
  (:mod:`repro.lint.perf.analyzer`).

Suppression comments are honoured here, once, for every join.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.core import Finding, Severity, iter_python_files
from repro.lint.perf.analyzer import check_perf
from repro.lint.perf.hotpaths import HotPathRegistry
from repro.lint.race.analyzer import check_races
from repro.lint.registry import PROJECT_SEVERITIES as _SEVERITIES
from repro.lint.sem.summary import build_summary


@dataclass
class SemStats:
    """Volume of one analysis run."""

    files: int = 0
    findings: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"files": self.files, "findings": self.findings}


class ProjectAnalyzer:
    """Two-phase whole-program analyzer: summaries, then every join."""

    def __init__(self) -> None:
        #: Hot-path registry override for the perf join (fixture
        #: projects set their own); ``None`` means the checked-in
        #: ``hotpaths.toml``.
        self.hotpaths: Optional[HotPathRegistry] = None
        self.stats = SemStats()

    def analyze_paths(
        self, paths: Iterable["str | Path"]
    ) -> List[Finding]:
        sources: List[Tuple[str, str]] = []
        for path in iter_python_files(paths):
            sources.append((str(path), path.read_text(encoding="utf-8")))
        return self.analyze_sources(sources)

    def analyze_sources(
        self, items: Sequence[Tuple[str, str]]
    ) -> List[Finding]:
        """Analyze (path, source) pairs — the paths may be virtual (the
        fixture corpus builds mini-projects from ``# simlint-path:``
        headers)."""
        summaries = [
            build_summary(path.replace("\\", "/"), source)
            for path, source in sorted(items)
        ]
        findings = self._check(summaries)
        self.stats = SemStats(files=len(summaries), findings=len(findings))
        return findings

    def _check(self, summaries: List[Dict[str, Any]]) -> List[Finding]:
        findings = [
            Finding(
                path=str(summary["path"]),
                line=int(line),
                col=int(col),
                code=str(code),
                message=str(message),
                severity=_SEVERITIES.get(str(code), Severity.ERROR),
            )
            for summary in summaries
            for code, line, col, message in summary.get("local_findings", [])
        ]
        findings.extend(check_races(summaries))
        findings.extend(check_perf(summaries, registry=self.hotpaths))
        findings = self._apply_suppressions(summaries, findings)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
        return findings

    def _apply_suppressions(
        self, summaries: List[Dict[str, Any]], findings: List[Finding]
    ) -> List[Finding]:
        by_path: Dict[str, Dict[str, List[str]]] = {
            str(s["path"]): s.get("suppressions", {}) for s in summaries
        }
        kept: List[Finding] = []
        for finding in findings:
            codes = by_path.get(finding.path, {}).get(str(finding.line))
            if codes and ("all" in codes or finding.code in codes):
                continue
            kept.append(finding)
        return kept


__all__ = ["ProjectAnalyzer", "SemStats"]

"""SARIF 2.1.0 serialization for lint findings.

One ``run`` whose tool driver enumerates the full rule catalog
(:func:`repro.lint.registry.catalog`), so that CI SARIF upload annotates
PR diffs.  Pure stdlib, like everything under :mod:`repro.lint`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.lint.core import Finding, Severity
from repro.lint.registry import catalog

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: simlint severities -> SARIF levels.
_LEVELS: Dict[Severity, str] = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
}


def _rules() -> List[Dict[str, Any]]:
    rules = []
    for entry in catalog():
        rules.append(
            {
                "id": entry.code,
                "name": entry.name,
                "shortDescription": {"text": entry.name},
                "fullDescription": {"text": entry.rationale},
                "defaultConfiguration": {
                    "level": _LEVELS.get(entry.severity, "warning")
                },
                "properties": {"kind": entry.kind},
            }
        )
    return rules


def _result(finding: Finding) -> Dict[str, Any]:
    return {
        "ruleId": finding.code,
        "level": _LEVELS.get(finding.severity, "warning"),
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": max(1, finding.line),
                        # simlint columns are 0-based; SARIF's are 1-based.
                        "startColumn": finding.col + 1,
                    },
                }
            }
        ],
    }


def findings_to_sarif(findings: Iterable[Finding]) -> Dict[str, Any]:
    """The complete SARIF log object for one lint run."""
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "simlint",
                        "informationUri": "LINTING.md",
                        "rules": _rules(),
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": [_result(finding) for finding in findings],
            }
        ],
    }


__all__ = ["findings_to_sarif", "SARIF_VERSION", "SARIF_SCHEMA"]

"""The simlint fixture corpus: every rule proves both halves.

Each ``simNNN_bad.py`` fixture must produce *exactly* the findings its
``# EXPECT:`` comments declare (code and line), and each
``simNNN_good.py`` twin must lint clean.  Fixtures carry a
``# simlint-path:`` header naming the virtual path they are linted as,
which exercises the per-rule path scoping (allowlists, driver-only
rules).  See tests/lint_fixtures/README.md.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

import pytest

from repro.lint import RULE_CLASSES, Analyzer, all_rules

pytestmark = pytest.mark.lint

FIXTURES = Path(__file__).parent / "lint_fixtures"

_PATH_RE = re.compile(r"#\s*simlint-path:\s*(\S+)")
_EXPECT_RE = re.compile(r"#\s*EXPECT:\s*([A-Z0-9 ,]+)")

#: Distinctive phrases (any-of) each rule's message must contain, so the
#: corpus pins messages (not just codes) without being brittle about
#: per-variant wording.
MESSAGE_PHRASES = {
    "SIM001": ("RNG", "seed"),
    "SIM002": ("host clock", "wall clock"),
    "SIM003": ("simulation-time float",),
    "SIM009": ("pickled",),
    "SIM010": ("except", "exception"),
}


def fixture_files() -> list:
    return sorted(FIXTURES.glob("*.py"))


def virtual_path(text: str, fixture: Path) -> str:
    match = _PATH_RE.search(text.splitlines()[0])
    assert match, f"{fixture.name} is missing its '# simlint-path:' header"
    return match.group(1)


def expected_findings(text: str) -> Counter:
    """Multiset of (code, line) declared by # EXPECT: comments."""
    expected: Counter = Counter()
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _EXPECT_RE.search(line)
        if match:
            for code in match.group(1).replace(",", " ").split():
                expected[(code, lineno)] += 1
    return expected


@pytest.mark.parametrize(
    "fixture", fixture_files(), ids=lambda p: p.stem
)
def test_fixture_matches_expectations(fixture):
    """Bad fixtures trip exactly their declared (code, line) findings;
    good fixtures (no EXPECT comments) stay silent."""
    text = fixture.read_text(encoding="utf-8")
    findings = Analyzer().lint_source(text, path=virtual_path(text, fixture))
    actual = Counter((f.code, f.line) for f in findings)
    assert actual == expected_findings(text), (
        f"{fixture.name}: findings diverge from EXPECT comments:\n"
        + "\n".join(f.format() for f in findings)
    )


@pytest.mark.parametrize(
    "fixture", [p for p in fixture_files() if p.stem.endswith("_bad")],
    ids=lambda p: p.stem,
)
def test_bad_fixture_messages(fixture):
    """Every finding carries its rule's code, severity, and a message
    containing the rule's distinctive phrase."""
    text = fixture.read_text(encoding="utf-8")
    findings = Analyzer().lint_source(text, path=virtual_path(text, fixture))
    assert findings, f"{fixture.name} is a bad fixture but linted clean"
    by_code = {cls.code: cls for cls in RULE_CLASSES}
    for finding in findings:
        rule = by_code[finding.code]
        assert finding.severity is rule.severity
        assert any(
            phrase in finding.message
            for phrase in MESSAGE_PHRASES[finding.code]
        ), (
            f"{finding.code} message lost its anchor phrase: "
            f"{finding.message!r}"
        )
        assert finding.line >= 1 and finding.col >= 0


def test_every_rule_has_bad_and_good_fixture():
    """The corpus covers all 5 per-file rules in both directions."""
    stems = {p.stem for p in fixture_files()}
    codes = [rule.code for rule in all_rules()]
    assert len(codes) == 5
    for code in codes:
        number = code[3:].lstrip("0")
        name = f"sim{int(number):03d}"
        assert f"{name}_bad" in stems, f"no known-bad fixture for {code}"
        assert f"{name}_good" in stems, f"no known-good fixture for {code}"


def test_good_twin_of_allowlisted_path():
    """SIM002's benchmark/CLI-timing allowlist: the same wall-clock code
    is a finding in model code but silent at the runner's timing path."""
    text = (FIXTURES / "sim002_allowed.py").read_text(encoding="utf-8")
    assert "perf_counter" in text
    allowed = Analyzer().lint_source(text, path="src/repro/runner/registry.py")
    assert allowed == []
    moved = Analyzer().lint_source(text, path="src/repro/net/link.py")
    assert {f.code for f in moved} == {"SIM002"}


def test_suppressions_cover_all_hazards():
    """suppressed.py packs SIM001/2/3 hazards, all waived inline."""
    text = (FIXTURES / "suppressed.py").read_text(encoding="utf-8")
    findings = Analyzer().lint_source(
        text, path="src/repro/traffic/fixture_suppressed.py"
    )
    assert findings == []
    # Strip the suppression comments and the same file must light up.
    stripped = re.sub(r"#\s*simlint:\s*disable=[^\n#]*", "", text)
    refound = Analyzer().lint_source(
        stripped, path="src/repro/traffic/fixture_suppressed.py"
    )
    assert {f.code for f in refound} >= {"SIM001", "SIM002", "SIM003"}

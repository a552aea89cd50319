"""Fixture-corpus tests for simsem, the cross-module semantic pass.

Each direct subdirectory of ``tests/lint_fixtures/sem/`` is one
mini-project, analyzed as a unit through
``ProjectAnalyzer.analyze_sources`` with the virtual paths taken from
each file's ``# simlint-path:`` header.  Directories ending in ``_bad``
must produce exactly the findings their ``# EXPECT:`` comments announce
(code, line and multiplicity); directories ending in ``_good`` must be
clean.
"""

import re
from collections import Counter
from pathlib import Path

import pytest

from repro.lint.sem import ProjectAnalyzer

pytestmark = pytest.mark.lint

SEM_FIXTURES = Path(__file__).parent / "lint_fixtures" / "sem"
SEM_CODES = ("SIM012", "SIM013")

_PATH_RE = re.compile(r"#\s*simlint-path:\s*(\S+)")
_EXPECT_RE = re.compile(r"#\s*EXPECT:\s*([A-Z0-9 ,]+)")

#: Every message must contain at least one of its code's anchor phrases,
#: so a rule cannot silently degenerate into a generic complaint.
MESSAGE_PHRASES = {
    "SIM012": ("dimensionally unsafe", "no physical meaning"),
    "SIM013": ("seed",),
}


def project_dirs():
    return sorted(path for path in SEM_FIXTURES.iterdir() if path.is_dir())


def load_project(project: Path):
    """(virtual-path, source) pairs and expected findings."""
    items = []
    expected: Counter = Counter()
    for path in sorted(project.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        match = _PATH_RE.match(lines[0]) if lines else None
        assert match, f"{path} is missing its '# simlint-path:' header"
        virtual = match.group(1)
        items.append((virtual, text))
        for lineno, line in enumerate(lines, start=1):
            expect = _EXPECT_RE.search(line)
            if expect:
                for code in expect.group(1).split(","):
                    expected[(virtual, code.strip(), lineno)] += 1
    return items, expected


def analyze_project(project: Path):
    items, expected = load_project(project)
    return ProjectAnalyzer().analyze_sources(items), expected


@pytest.mark.parametrize("project", project_dirs(), ids=lambda p: p.name)
def test_fixture_findings_exact(project):
    """Bad twins produce exactly their EXPECTed (path, code, line)
    multiset; good twins produce nothing."""
    findings, expected = analyze_project(project)
    actual = Counter((f.path, f.code, f.line) for f in findings)
    assert actual == expected, (
        f"{project.name}: findings diverge from EXPECT comments\n"
        + "\n".join(f.format() for f in findings)
    )
    if project.name.endswith("_good"):
        assert not findings
    if project.name.endswith("_bad"):
        assert findings, f"{project.name} found nothing"


@pytest.mark.parametrize("project", project_dirs(), ids=lambda p: p.name)
def test_fixture_messages_anchor_phrases(project):
    """Messages stay explanatory — each carries its rule's anchor."""
    findings, _expected = analyze_project(project)
    for finding in findings:
        phrases = MESSAGE_PHRASES[finding.code]
        assert any(phrase in finding.message for phrase in phrases), (
            f"{finding.code} message lost its anchor phrase: "
            f"{finding.message!r}"
        )


@pytest.mark.parametrize("code", SEM_CODES)
def test_every_sem_rule_has_bad_and_good_twin(code):
    """Each cross-module rule keeps a failing and a passing fixture."""
    suffix = code[3:].lstrip("0")
    bad = SEM_FIXTURES / f"sim0{suffix}_bad"
    good = SEM_FIXTURES / f"sim0{suffix}_good"
    assert bad.is_dir(), f"no bad twin for {code}"
    assert good.is_dir(), f"no good twin for {code}"
    bad_findings, _ = analyze_project(bad)
    assert any(f.code == code for f in bad_findings), (
        f"{bad.name} never triggers {code}"
    )


def test_finding_order_is_deterministic():
    """Same project, any input order, twice — identical finding lists."""
    project = SEM_FIXTURES / "sim013_bad"
    items, _expected = load_project(project)
    runs = []
    for ordered in (items, list(reversed(items)), items):
        runs.append([f.format() for f in ProjectAnalyzer().analyze_sources(ordered)])
    assert runs[0] == runs[1] == runs[2]
    # And the order itself is the canonical (path, line, col, code) sort.
    keys = [(f.path, f.line, f.col, f.code) for f in (
        ProjectAnalyzer().analyze_sources(items)
    )]
    assert keys == sorted(keys)


def test_suppression_fixture_is_honoured():
    """The suppressed twin would fire SIM012 without its pragma."""
    project = SEM_FIXTURES / "sim012_suppressed_good"
    items, _expected = load_project(project)
    findings = ProjectAnalyzer().analyze_sources(items)
    assert findings == []
    stripped = [
        (path, text.replace("# simlint: disable=SIM012", ""))
        for path, text in items
    ]
    findings = ProjectAnalyzer().analyze_sources(stripped)
    assert [f.code for f in findings] == ["SIM012"]

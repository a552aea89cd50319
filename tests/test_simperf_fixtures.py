"""Fixture-corpus tests for simperf's static side (SIM019, SIM020).

Same contract as the simrace corpus (see ``test_simrace_fixtures.py``):
each direct subdirectory of ``tests/lint_fixtures/perf/`` is one
mini-project analyzed as a unit through
``ProjectAnalyzer.analyze_sources`` with its ``hotpaths`` set, with virtual paths from
each file's ``# simlint-path:`` header.  One sidecar parameterizes the
pass: ``hotpaths.toml`` (the project's hot-path registry).  ``_bad``
projects must produce exactly the findings their ``# EXPECT:`` comments
announce (code, line and multiplicity); ``_good`` twins must be clean of
every rule family, so a fixture can never hide another family's
regression.
"""

import re
from collections import Counter
from pathlib import Path

import pytest

from repro.lint.perf.hotpaths import HotPathRegistry
from repro.lint.sem import ProjectAnalyzer

pytestmark = pytest.mark.lint

PERF_FIXTURES = Path(__file__).parent / "lint_fixtures" / "perf"
PERF_CODES = ("SIM019", "SIM020")

_PATH_RE = re.compile(r"#\s*simlint-path:\s*(\S+)")
_EXPECT_RE = re.compile(r"#\s*EXPECT:\s*([A-Z0-9 ,]+)")

#: Every message must contain at least one of its code's anchor phrases,
#: so a rule cannot silently degenerate into a generic complaint.
MESSAGE_PHRASES = {
    "SIM019": ("allow-alloc",),
    "SIM020": ("pre-bind it to a local",),
}


def project_dirs():
    return sorted(path for path in PERF_FIXTURES.iterdir() if path.is_dir())


def load_project(project: Path):
    """(virtual-path, source) pairs plus the EXPECTed finding multiset."""
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


def make_analyzer(project: Path) -> ProjectAnalyzer:
    analyzer = ProjectAnalyzer()
    analyzer.hotpaths = HotPathRegistry.load(project / "hotpaths.toml")
    return analyzer


def analyze_project(project: Path):
    items, expected = load_project(project)
    return make_analyzer(project).analyze_sources(items), expected


@pytest.mark.parametrize("project", project_dirs(), ids=lambda p: p.name)
def test_fixture_findings_exact(project):
    """Bad twins produce exactly their EXPECTed (path, code, line)
    multiset; good twins produce nothing at all."""
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


@pytest.mark.parametrize("code", PERF_CODES)
def test_every_perf_rule_has_bad_and_good_twin(code):
    """Each perf rule keeps a failing and a passing fixture."""
    suffix = code[3:].lstrip("0")
    bad = PERF_FIXTURES / f"sim0{suffix}_bad"
    good = PERF_FIXTURES / f"sim0{suffix}_good"
    assert bad.is_dir(), f"no bad twin for {code}"
    assert good.is_dir(), f"no good twin for {code}"
    bad_findings, _ = analyze_project(bad)
    assert any(f.code == code for f in bad_findings), (
        f"{bad.name} never triggers {code}"
    )


def test_finding_order_is_deterministic():
    """Same project, any input order, twice — identical finding lists."""
    project = PERF_FIXTURES / "sim019_bad"
    items, _expected = load_project(project)
    runs = []
    for ordered in (items, list(reversed(items)), items):
        runs.append(
            [f.format() for f in make_analyzer(project).analyze_sources(ordered)]
        )
    assert runs[0] == runs[1] == runs[2]


def test_allow_alloc_pragma_waives_sim019():
    """Adding the pragma to the flagged line silences SIM019 — the
    same mechanism the real tree's waivers use."""
    project = PERF_FIXTURES / "sim019_bad"
    items, _expected = load_project(project)
    waived = [
        (
            path,
            text.replace(
                "# EXPECT: SIM019",
                "# simperf: allow-alloc(fixture waiver)",
            ),
        )
        for path, text in items
    ]
    findings = make_analyzer(project).analyze_sources(waived)
    assert not any(f.code == "SIM019" for f in findings)


def test_empty_pragma_reason_does_not_waive():
    """``allow-alloc()`` without a reason is not a waiver."""
    project = PERF_FIXTURES / "sim019_bad"
    items, _expected = load_project(project)
    hollow = [
        (
            path,
            text.replace(
                "# EXPECT: SIM019", "# simperf: allow-alloc()"
            ),
        )
        for path, text in items
    ]
    findings = make_analyzer(project).analyze_sources(hollow)
    assert any(f.code == "SIM019" for f in findings)


def test_perf_findings_are_suppressible():
    """`# simlint: disable=` pragmas silence perf codes like any other
    (the SIM020 escape hatch — that rule has no allow-alloc waiver)."""
    project = PERF_FIXTURES / "sim020_bad"
    items, _expected = load_project(project)
    suppressed = [
        (
            path,
            text.replace(
                "# EXPECT: SIM020", "# simlint: disable=SIM020"
            ),
        )
        for path, text in items
    ]
    findings = make_analyzer(project).analyze_sources(suppressed)
    assert not any(f.code == "SIM020" for f in findings)

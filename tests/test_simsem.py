"""Unit and integration tests for the whole-program pass (repro.lint.sem).

Covers phase-1 summary extraction, a whole-program finding through the
CLI, and the acceptance gate that the real tree analyzes clean.
"""

import json
from pathlib import Path

import pytest

from repro.lint import catalog, known_codes
from repro.lint.cli import main as lint_main
from repro.lint.registry import PROJECT_RULES
from repro.lint.sem import ProjectAnalyzer, build_summary
from repro.lint.sem.summary import module_name_for_path

pytestmark = pytest.mark.lint

REPO = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# Phase-1 summaries
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "path, module",
    [
        ("src/repro/net/link.py", "repro.net.link"),
        ("src/repro/lint/__init__.py", "repro.lint"),
        ("repro/sim/engine.py", "repro.sim.engine"),
        ("/tmp/whatever/mod.py", "mod"),
    ],
)
def test_module_name_for_path(path, module):
    assert module_name_for_path(path) == module


def test_build_summary_extracts_facts():
    source = (
        "from repro.sim.priorities import SAMPLE\n"
        "\n"
        "class Sampler:\n"
        "    def _tick(self) -> None:\n"
        "        self.sim.post(0.1, self._tick, priority=SAMPLE)\n"
        "        record(self, [1, 2])\n"
        "        self.sim.post(0.2, self._tick, priority=-1)\n"
    )
    summary = build_summary("src/repro/metrics/demo.py", source)
    assert summary["module"] == "repro.metrics.demo"
    assert not summary["parse_error"]
    assert summary["classes"]["Sampler"]["methods"] == {"_tick": 4}
    tick = summary["functions"]["Sampler._tick"]
    assert tick["class"] == "Sampler"
    named, literal = tick["sched_calls"]
    assert named["priority"] == {"kind": "other"}
    assert literal["priority"] == {"kind": "literal", "value": -1}
    assert named["callback"] == {"kind": "self", "method": "_tick"}
    callees = [call["callee"] for call in tick["calls"]]
    assert {"kind": "attr", "name": "post"} in callees
    assert {"kind": "local", "name": "record"} in callees
    assert [alloc["detail"] for alloc in tick["cost"]["allocs"]] == ["list"]
    # Only a syntax error is decided inside one file.
    assert summary["local_findings"] == []


def test_build_summary_syntax_error_degrades_to_sim000():
    summary = build_summary("src/repro/broken.py", "def broken(:\n")
    assert summary["parse_error"]
    (finding,) = summary["local_findings"]
    assert finding[0] == "SIM000"


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

#: A periodic callback at the default priority: a SIM018 finding that
#: only the join over the summaries decides.
RACY_SOURCE = (
    "from repro.sim.priorities import SAMPLE\n"
    "\n"
    "class Ticker:\n"
    "    def tick(self):\n"
    "        self.sim.post(0.01, self.tick)\n"
)


def _write_racy_module(tree: Path) -> Path:
    tree.mkdir(parents=True, exist_ok=True)
    target = tree / "mod.py"
    target.write_text(RACY_SOURCE, encoding="utf-8")
    return target


def test_cli_sem_exit_codes(tmp_path, capsys):
    tree = tmp_path / "proj"
    target = _write_racy_module(tree)
    assert lint_main([str(tree), "-q"]) == 1
    assert "SIM018" in capsys.readouterr().out
    # Name the tier: clean exit.
    target.write_text(
        RACY_SOURCE.replace("self.tick)", "self.tick, priority=SAMPLE)"),
        encoding="utf-8",
    )
    assert lint_main([str(tree), "-q"]) == 0


def test_cli_sem_select_filters_sem_codes(tmp_path):
    tree = tmp_path / "proj"
    _write_racy_module(tree)
    args = [str(tree), "-q"]
    assert lint_main(["--select", "SIM018", *args]) == 1
    assert lint_main(["--select", "SIM019", *args]) == 0
    assert lint_main(["--ignore", "SIM018", *args]) == 0


def test_cli_sem_json_payload(tmp_path, capsys):
    tree = tmp_path / "proj"
    _write_racy_module(tree)
    assert lint_main(["--format", "json", str(tree)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["sem"]["files"] == 1
    assert payload["sem"]["findings"] == 1
    (finding,) = payload["findings"]
    assert finding["code"] == "SIM018"


def test_cli_list_rules_includes_semantic_catalog(capsys):
    """Every whole-program rule is listed, accepted and tagged with the
    join that reports it."""
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for entry in PROJECT_RULES:
        assert entry.code in out
        assert entry.code in known_codes()
    kinds = {entry.code: entry.kind for entry in catalog()}
    assert kinds["SIM010"] == "syntactic"
    assert kinds["SIM018"] == "race"
    assert kinds["SIM019"] == kinds["SIM020"] == "perf"


# ----------------------------------------------------------------------
# Acceptance gate: the real tree is clean
# ----------------------------------------------------------------------


def test_real_tree_analyzes_clean():
    """src/repro carries zero whole-program findings, kept as a
    permanent regression gate."""
    analyzer = ProjectAnalyzer()
    findings = analyzer.analyze_paths([REPO / "src" / "repro"])
    assert findings == [], "\n".join(f.format() for f in findings)
    assert analyzer.stats.files > 90

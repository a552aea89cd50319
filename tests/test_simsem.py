"""Unit and integration tests for the whole-program pass (repro.lint.sem).

Covers phase-1 summary extraction, the semantic codes through the CLI,
and the acceptance gate that the real tree analyzes clean.
"""

import json
from pathlib import Path

import pytest

from repro.lint import catalog, known_codes
from repro.lint.cli import main as lint_main
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
        "from repro.sim.units import BitsPerSecond, Seconds\n"
        "\n"
        "class Sampler:\n"
        "    def _tick(self) -> None:\n"
        "        self.sim.post(0.1, self._tick, priority=SAMPLE)\n"
        "        record(self, [1, 2])\n"
        "\n"
        "def gap(rto: Seconds, rate: BitsPerSecond) -> float:\n"
        "    return rto + rate\n"
    )
    summary = build_summary("src/repro/metrics/demo.py", source)
    assert summary["module"] == "repro.metrics.demo"
    assert not summary["parse_error"]
    assert summary["classes"]["Sampler"]["methods"] == {"_tick": 5}
    tick = summary["functions"]["Sampler._tick"]
    assert tick["class"] == "Sampler"
    (sched,) = tick["sched_calls"]
    assert sched["priority"] == {"kind": "other"}
    assert sched["callback"] == {"kind": "self", "method": "_tick"}
    callees = [call["callee"] for call in tick["calls"]]
    assert {"kind": "attr", "name": "post"} in callees
    assert {"kind": "local", "name": "record"} in callees
    assert [alloc["detail"] for alloc in tick["cost"]["allocs"]] == ["list"]
    # Dimensions come from the alias annotations: SIM012 is decided here.
    (finding,) = summary["local_findings"]
    assert finding[:2] == ["SIM012", 10]


def test_build_summary_syntax_error_degrades_to_sim000():
    summary = build_summary("src/repro/broken.py", "def broken(:\n")
    assert summary["parse_error"]
    (finding,) = summary["local_findings"]
    assert finding[0] == "SIM000"


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


def _write_bad_module(tree: Path) -> Path:
    tree.mkdir(parents=True, exist_ok=True)
    target = tree / "mod.py"
    target.write_text(
        "from repro.sim.units import Seconds, megabits_per_second, milliseconds\n"
        "\n"
        "def deadline(timeout: Seconds) -> float:\n"
        "    return timeout + megabits_per_second(1)\n",
        encoding="utf-8",
    )
    return target


def test_cli_sem_exit_codes(tmp_path, capsys):
    tree = tmp_path / "proj"
    target = _write_bad_module(tree)
    assert lint_main([str(tree), "-q"]) == 1
    out = capsys.readouterr().out
    assert "SIM012" in out and "seconds" in out
    # Fix the dimension: clean exit.
    target.write_text(
        target.read_text(encoding="utf-8").replace(
            "megabits_per_second(1)", "milliseconds(200)"
        ),
        encoding="utf-8",
    )
    assert lint_main([str(tree), "-q"]) == 0


def test_cli_sem_select_filters_sem_codes(tmp_path):
    tree = tmp_path / "proj"
    _write_bad_module(tree)
    args = [str(tree), "-q"]
    assert lint_main(["--select", "SIM012", *args]) == 1
    assert lint_main(["--select", "SIM013", *args]) == 0
    assert lint_main(["--ignore", "SIM012", *args]) == 0


def test_cli_sem_json_payload(tmp_path, capsys):
    tree = tmp_path / "proj"
    _write_bad_module(tree)
    assert lint_main(["--format", "json", str(tree)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["sem"]["files"] == 1
    assert payload["sem"]["findings"] == 1
    (finding,) = payload["findings"]
    assert finding["code"] == "SIM012"


def test_cli_list_rules_includes_semantic_catalog(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("SIM012", "SIM013"):
        assert code in out
        assert code in known_codes()
    kinds = {entry.code: entry.kind for entry in catalog()}
    assert kinds["SIM003"] == "syntactic"
    assert kinds["SIM012"] == "semantic"
    assert kinds["SIM013"] == "semantic"


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

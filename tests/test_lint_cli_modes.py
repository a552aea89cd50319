"""CLI-surface tests for ``python -m repro.lint`` and ``repro.lint.smoke``.

There is one pass and one sanitizer smoke, so this file pins what the
surface *is*: the removed mode flags are usage errors, ``--select`` of a
whole-program code needs no mode flag, one no-flag run over a mixed
project reports every rule family together in all three formats, and the
smoke runner's report and exit codes.
"""

import json
import re

import pytest

from repro.lint import smoke
from repro.lint.cli import main as lint_main
from repro.lint.race.runtime import RaceMonitor

pytestmark = pytest.mark.lint

#: Every code ever issued and retired: never reused, rejected by --select.
RETIRED = (
    "SIM001", "SIM002", "SIM003", "SIM004", "SIM005", "SIM006", "SIM007",
    "SIM008", "SIM011", "SIM012", "SIM013", "SIM014", "SIM015", "SIM016",
    "SIM017", "SIM021", "SIM022", "SIM023",
)

#: A periodic callback at the default priority: the SIM018 shape.
RACY_SOURCE = '''\
class Ticker:
    def __init__(self, sim):
        self.sim = sim

    def tick(self):
        self.sim.post(0.01, self.tick)
'''

CLEAN_SOURCE = "def helper(x):\n    return x + 1\n"

#: A broad handler that only passes: the SIM010 shape.
SWALLOW_SOURCE = "try:\n    flush()\nexcept Exception:\n    pass\n"

#: Lands on a hot path of the checked-in hotpaths.toml once it sits at
#: ``<project>/repro/net/link.py`` (module ``repro.net.link``).
HOT_ALLOC_SOURCE = '''\
class Link:
    def __init__(self):
        self.log = []

    def enqueue(self, sim, packet):
        sim.post(1.0, self._finish_transmission, packet)

    def _finish_transmission(self, packet):
        self.log.append([packet, packet])
'''


@pytest.fixture
def racy_project(tmp_path):
    (tmp_path / "ticker.py").write_text(RACY_SOURCE, encoding="utf-8")
    return tmp_path


@pytest.fixture
def mixed_project(tmp_path):
    """One finding per rule family: SIM010, SIM018, SIM019."""
    (tmp_path / "flush.py").write_text(SWALLOW_SOURCE, encoding="utf-8")
    (tmp_path / "ticker.py").write_text(RACY_SOURCE, encoding="utf-8")
    net = tmp_path / "repro" / "net"
    net.mkdir(parents=True)
    (net / "link.py").write_text(HOT_ALLOC_SOURCE, encoding="utf-8")
    return tmp_path


MIXED_CODES = ["SIM010", "SIM018", "SIM019"]


# ----------------------------------------------------------------------
# The removed ladder
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "flag",
    [
        ["--sem"],
        ["--race"],
        ["--perf"],
        ["--changed-only"],
        ["--baseline", "b.json"],
        ["--write-baseline", "b.json"],
        ["--sem-cache", "dir"],
        ["--no-sem-cache"],
        ["--from-telemetry", "runs.jsonl"],
    ],
    ids=lambda flag: flag[0],
)
def test_removed_flags_are_usage_errors(flag, racy_project):
    with pytest.raises(SystemExit) as excinfo:
        lint_main([*flag, str(racy_project), "-q"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("code", RETIRED)
def test_retired_code_is_a_usage_error(code, racy_project):
    for option in ("--select", "--ignore"):
        with pytest.raises(SystemExit) as excinfo:
            lint_main([option, code, str(racy_project), "-q"])
        assert excinfo.value.code == 2


def test_option_count_is_the_documented_six():
    from repro.lint.cli import build_parser

    options = sorted(
        action.option_strings[-1]
        for action in build_parser()._actions
        if action.option_strings and "--help" not in action.option_strings
    )
    assert options == [
        "--fix", "--format", "--ignore", "--list-rules", "--quiet",
        "--select",
    ]


# ----------------------------------------------------------------------
# --select / --ignore with no mode flag
# ----------------------------------------------------------------------


@pytest.mark.parametrize("code", ["SIM018", "SIM019"])
def test_select_whole_program_code_needs_no_mode_flag(code, mixed_project):
    target = str(mixed_project)
    assert lint_main(["--select", code, target, "-q"]) == 1
    assert lint_main(["--ignore", code, target, "-q"]) == 1  # the others
    assert lint_main(["--ignore", ",".join(MIXED_CODES), target, "-q"]) == 0


def test_select_interacts_across_passes(tmp_path):
    (tmp_path / "ticker.py").write_text(RACY_SOURCE, encoding="utf-8")
    (tmp_path / "flush.py").write_text(SWALLOW_SOURCE, encoding="utf-8")
    target = str(tmp_path)
    # Selecting another whole-program code mutes the race finding and
    # the per-file rules:
    assert lint_main(["--select", "SIM019", target, "-q"]) == 0
    # Syntactic finding only, race finding muted by --select:
    assert lint_main(["--select", "SIM010", target, "-q"]) == 1
    # --ignore drops the race finding, syntactic SIM010 remains:
    assert lint_main(["--ignore", "SIM018", target, "-q"]) == 1
    assert lint_main(["--ignore", "SIM010,SIM018", target, "-q"]) == 0


# ----------------------------------------------------------------------
# One run, every family, three formats
# ----------------------------------------------------------------------


def test_one_run_reports_every_family_text(mixed_project, capsys):
    assert lint_main([str(mixed_project)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert sorted(line.split()[1] for line in lines) == MIXED_CODES
    assert "3 finding(s) in 3 file(s)" in captured.err


def test_one_run_reports_every_family_json(mixed_project, capsys):
    assert lint_main(["--format", "json", str(mixed_project)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert sorted(f["code"] for f in payload["findings"]) == MIXED_CODES
    assert payload["checked_files"] == 3
    assert payload["sem"] == {"files": 3, "findings": 2}


def test_one_run_reports_every_family_sarif(mixed_project, capsys):
    assert lint_main(["--format", "sarif", str(mixed_project)]) == 1
    log = json.loads(capsys.readouterr().out)
    results = log["runs"][0]["results"]
    assert sorted(r["ruleId"] for r in results) == MIXED_CODES


def test_syntax_error_is_reported_once(tmp_path, capsys):
    """Both halves of the pass see the broken file; it reports once."""
    (tmp_path / "broken.py").write_text("def broken(:\n", encoding="utf-8")
    assert lint_main([str(tmp_path), "-q"]) == 1
    assert capsys.readouterr().out.count("SIM000") == 1


# ----------------------------------------------------------------------
# --list-rules
# ----------------------------------------------------------------------


def test_list_rules_text_spans_the_ladder(capsys):
    from repro.lint.registry import catalog

    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for entry in catalog():
        assert entry.code in out
        assert entry.name in out
        assert f"[{entry.kind}/{entry.severity.value}]" in out
    assert len(re.findall(r"^  SIM\d{3}  ", out, re.MULTILINE)) == 5
    assert "[--fix]" in out


def test_list_rules_json_is_machine_readable(capsys):
    from repro.lint.registry import catalog

    assert lint_main(["--list-rules", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rules = payload["rules"]
    assert [r["code"] for r in rules] == [e.code for e in catalog()]
    assert len(rules) == 5
    assert not set(RETIRED) & {r["code"] for r in rules}
    by_code = {r["code"]: r for r in rules}
    assert by_code["SIM009"]["kind"] == "syntactic"
    assert by_code["SIM018"]["kind"] == "race"
    assert by_code["SIM019"]["kind"] == "perf"
    for rule in rules:
        assert set(rule) == {
            "code", "name", "kind", "severity", "fixable", "rationale",
        }
        assert rule["severity"] in ("error", "warning")
        assert rule["rationale"].strip()


def test_race_findings_in_json_payload(racy_project, capsys):
    assert lint_main(["--format", "json", str(racy_project)]) == 1
    payload = json.loads(capsys.readouterr().out)
    codes = [f["code"] for f in payload["findings"]]
    assert codes == ["SIM018"]


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------


def test_sarif_output_is_valid_and_complete(racy_project, capsys):
    assert lint_main(["--format", "sarif", str(racy_project)]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
    # The driver catalog spans every family.
    for code in ("SIM009", "SIM018", "SIM020"):
        assert code in rule_ids
    results = run["results"]
    assert [r["ruleId"] for r in results] == ["SIM018"]
    region = results[0]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1
    assert region["startColumn"] >= 1  # SARIF columns are 1-based
    assert results[0]["level"] == "warning"


def test_sarif_empty_run_still_valid(tmp_path, capsys):
    (tmp_path / "ok.py").write_text(CLEAN_SOURCE, encoding="utf-8")
    assert lint_main(["--format", "sarif", str(tmp_path)]) == 0
    log = json.loads(capsys.readouterr().out)
    assert log["runs"][0]["results"] == []


# ----------------------------------------------------------------------
# The sanitizer smoke
# ----------------------------------------------------------------------


def _smoke(tmp_path, *extra):
    out = tmp_path / "report.jsonl"
    code = smoke.main(
        ["--scenario", "bottleneck-xmp", "--out", str(out), *extra]
    )
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return code, records


def test_smoke_report_and_exit_codes(tmp_path, capsys, monkeypatch):
    code, records = _smoke(tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "bottleneck-xmp" in out and "micro_hotpath_fire" in out

    # One line per scenario and micro cell; its ``probes`` object holds
    # the monitors' finish() reports, as a run record's does.
    by_scenario = {r["scenario"]: r["probes"] for r in records}
    assert {name: set(probes) for name, probes in by_scenario.items()} == {
        "bottleneck-xmp": {"race", "alloc"},
        "micro_schedule_fire": {"alloc"},
        "micro_hotpath_fire": {"alloc"},
    }
    race, alloc = (by_scenario["bottleneck-xmp"][kind] for kind in ("race", "alloc"))
    assert set(race) == {"events", "batches", "collisions", "records"}
    assert race["collisions"] == 0 and race["records"] == [] and race["batches"] > 0
    assert set(alloc) == {"events", "hot_events", "allocators", "functions"}
    assert records[0]["unexplained"] == [] and alloc["hot_events"] > 0
    assert alloc["events"] == race["events"]  # one run, both monitors
    functions = alloc["functions"]
    assert functions and all(entry["events"] > 0 for entry in functions.values())
    # The validator watches links without renaming their callbacks, so
    # the allocation monitor sees the hottest one of all.
    assert "repro.net.link.Link._finish_transmission" in functions
    assert alloc["hot_events"] >= 0.98 * alloc["events"]
    for cell in ("micro_schedule_fire", "micro_hotpath_fire"):
        assert by_scenario[cell]["alloc"]["allocators"] == []

    # An observed collision fails the run and lands in the report.
    class PlantedCollision(RaceMonitor):
        def on_event_settled(self):
            super().on_event_settled()
            if not self.collisions:
                self._record_collision(0.0, 0, self, "attr", "a", "b")

    # (The micro cells passed above; the failing reruns skip them.)
    monkeypatch.setattr(smoke, "MICRO_CELLS", {})
    with monkeypatch.context() as patch:
        patch.setattr(smoke, "RaceMonitor", PlantedCollision)
        code, records = _smoke(tmp_path, "-q")
    assert code == 1
    assert [r["attr"] for r in records[0]["probes"]["race"]["records"]] == ["attr"]
    assert "1 collision(s)" in capsys.readouterr().out

    # So does an allocator the static summaries cannot explain.
    with monkeypatch.context() as patch:
        patch.setattr(
            smoke, "explained_hot_functions", lambda summaries, registry: set()
        )
        code, records = _smoke(tmp_path, "-q")
    assert code == 1
    (record,) = records
    assert record["unexplained"] == record["probes"]["alloc"]["allocators"] != []
    assert "unexplained allocator(s)" in capsys.readouterr().out

    # And so does a callback hotpaths.toml does not register firing more
    # than its share of the events (Timer._fire is 0.9 % of this golden).
    with monkeypatch.context() as patch:
        patch.setattr(smoke, "HOT_SHARE", 0.005)
        code, _records = _smoke(tmp_path, "-q")
    assert code == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert "repro.sim.events.Timer._fire fires 57 of 6225 events" in line


def test_smoke_option_count_is_three():
    options = [
        action.option_strings[-1]
        for action in smoke.build_parser()._actions
        if action.option_strings and "--help" not in action.option_strings
    ]
    assert options == ["--scenario", "--out", "--quiet"]

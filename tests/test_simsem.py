"""Unit and integration tests for simsem (repro.lint.sem).

Covers the pieces the fixture corpus does not: the sink-registry parser,
phase-1 summary extraction, the semantic codes through the CLI, the
SIM004 ``--fix`` round trip, and the acceptance gate that the real tree
analyzes clean.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from repro.lint import Analyzer, catalog, known_codes
from repro.lint.cli import main as lint_main
from repro.lint.sem import (
    ProjectAnalyzer,
    SinkRegistry,
    SinkRegistryError,
    build_summary,
)
from repro.lint.sem.registry import DEFAULT_SINKS_FILE, parse_sinks_toml
from repro.lint.sem.summary import module_name_for_path
from repro.sim import units

pytestmark = pytest.mark.lint

REPO = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# Sink registry
# ----------------------------------------------------------------------


def test_parse_sinks_toml_happy_path():
    sinks = parse_sinks_toml(
        """
        # a comment
        [repro.net.link.Link.__init__]
        rate_bps = "bits_per_second"  # trailing comment
        delay = "seconds"

        [repro.sim.units.transmission_delay]
        size_bytes = "bytes"
        """
    )
    assert sinks["repro.net.link.Link.__init__"] == {
        "rate_bps": "bits_per_second",
        "delay": "seconds",
    }
    assert sinks["repro.sim.units.transmission_delay"] == {"size_bytes": "bytes"}


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[a]\nx = \"seconds\"\n[a]\ny = \"seconds\"", "duplicate section"),
        ("[a.b]\nx = \"fortnights\"", "unknown dimension"),
        ("x = \"seconds\"", "outside any [section]"),
        ("[a.b]\nx = seconds", "quoted string"),
        ("[a..b]\nx = \"seconds\"", "malformed section"),
        ("[a.b]\n2x = \"seconds\"", "not an identifier"),
        ("[a.b]\nx = \"seconds\"\nx = \"bytes\"", "duplicate parameter"),
        ("[a.b]\njust some words", "expected"),
    ],
)
def test_parse_sinks_toml_rejects(text, fragment):
    with pytest.raises(SinkRegistryError) as excinfo:
        parse_sinks_toml(text)
    assert fragment in str(excinfo.value)


def test_registry_lookup_and_conflicts():
    registry = SinkRegistry()
    registry.add("repro.net.link.Link.__init__", "delay", "seconds")
    # A constructor sink answers to the class name at attribute calls.
    assert registry.by_callable_name("Link") == [
        ("repro.net.link.Link.__init__", {"delay": "seconds"})
    ]
    assert registry.by_qname("repro.net.link.Link.__init__") == {"delay": "seconds"}
    registry.add("repro.net.network.Network.connect", "rate_bps", "bits_per_second")
    assert len(registry) == 2
    # Conflicting redeclaration is a hard error, agreement is idempotent.
    registry.add("repro.net.network.Network.connect", "rate_bps", "bits_per_second")
    with pytest.raises(SinkRegistryError):
        registry.add("repro.net.network.Network.connect", "rate_bps", "seconds")


def test_checked_in_registry_loads_and_covers_link():
    registry = SinkRegistry.load()
    assert registry.by_qname("repro.net.link.Link.__init__") == {
        "rate_bps": "bits_per_second",
        "delay": "seconds",
    }


def _resolve(qname):
    """The object a dotted ``module.attr...`` name spells, or None."""
    parts = qname.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            target = getattr(target, attr, None)
        return target
    return None


def test_checked_in_registry_entries_resolve_to_real_parameters():
    """Every ``sinks.toml`` section names an existing callable and every
    key one of its parameters: a deleted knob cannot leave a stale sink
    behind (the twin of the hotpaths.toml resolve test)."""
    sinks = parse_sinks_toml(DEFAULT_SINKS_FILE.read_text(encoding="utf-8"))
    stale = []
    for qname, params in sinks.items():
        target = _resolve(qname)
        if not callable(target):
            stale.append(qname)
            continue
        known = inspect.signature(target).parameters
        stale.extend(f"{qname}({param}=)" for param in params if param not in known)
    assert stale == [], f"sinks.toml names unknown callables or parameters: {stale}"


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
        "from repro.sim.units import Seconds, milliseconds\n"
        "\n"
        "TIMEOUT = 0.2\n"
        "\n"
        "def set_rto(rto: Seconds) -> None:\n"
        "    pass\n"
        "\n"
        "def run() -> None:\n"
        "    set_rto(milliseconds(200))\n"
    )
    summary = build_summary("src/repro/transport/demo.py", source)
    assert summary["module"] == "repro.transport.demo"
    assert not summary["parse_error"]
    assert summary["functions"]["set_rto"]["param_dims"] == {"rto": "seconds"}
    assert summary["module_constants"]["TIMEOUT"] == {
        "k": "raw", "via": 1, "zero": False,
    }
    # Both the outer local call and the inner units call are recorded.
    (call,) = [
        c for c in summary["functions"]["run"]["calls"]
        if c["callee"]["kind"] == "local"
    ]
    assert call["callee"] == {"kind": "local", "name": "set_rto"}
    assert call["args"] == [{"k": "dim", "d": "seconds"}]


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
        "from repro.sim.units import Seconds, megabits_per_second\n"
        "\n"
        "def set_timeout(timeout: Seconds) -> None:\n"
        "    pass\n"
        "\n"
        "def run() -> None:\n"
        "    set_timeout(megabits_per_second(1))\n",
        encoding="utf-8",
    )
    return target


def test_cli_sem_exit_codes(tmp_path, capsys):
    tree = tmp_path / "proj"
    target = _write_bad_module(tree)
    assert lint_main([str(tree), "-q"]) == 1
    out = capsys.readouterr().out
    assert "SIM011" in out and "seconds" in out
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
    assert lint_main(["--select", "SIM011", *args]) == 1
    assert lint_main(["--select", "SIM013", *args]) == 0
    assert lint_main(["--ignore", "SIM011", *args]) == 0


def test_cli_sem_json_payload(tmp_path, capsys):
    tree = tmp_path / "proj"
    _write_bad_module(tree)
    assert lint_main(["--format", "json", str(tree)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["sem"]["files"] == 1
    assert payload["sem"]["findings"] == 1
    (finding,) = payload["findings"]
    assert finding["code"] == "SIM011"


def test_cli_list_rules_includes_semantic_catalog(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("SIM011", "SIM012", "SIM013", "SIM014", "SIM015"):
        assert code in out
        assert code in known_codes()
    kinds = {entry.code: entry.kind for entry in catalog()}
    assert kinds["SIM004"] == "syntactic"
    assert kinds["SIM011"] == "semantic"


# ----------------------------------------------------------------------
# SIM004 --fix round trip
# ----------------------------------------------------------------------


def test_sim004_fix_round_trip(tmp_path):
    """--fix rewrites bare unit literals to constructor calls that are
    bit-identical to the original floats, adds the import, and leaves a
    file that lints clean and parses."""
    target = tmp_path / "build_topo.py"
    target.write_text(
        "def build(net):\n"
        "    net.connect(0, 1, 1e9, 20e-6)\n"
        "    net.add_link(rate_bps=300e6, delay=0.005)\n"
        "    net.add_link(rate_bps=2.5e9, delay=1.8e-3)\n",
        encoding="utf-8",
    )
    assert lint_main([str(target), "-q"]) == 1
    assert lint_main(["--fix", str(target), "-q"]) == 0
    fixed = target.read_text(encoding="utf-8")
    # Exact conversions use the named constructor; values a named
    # conversion cannot reproduce bit-identically (20e-6, 2.5e9, 1.8e-3)
    # fall back to the identity constructor wrapping the literal.
    assert "gigabits_per_second(1)" in fixed
    assert "seconds(20e-6)" in fixed
    assert "megabits_per_second(300)" in fixed
    assert "milliseconds(5)" in fixed
    assert "bits_per_second(2.5e9)" in fixed
    assert "seconds(1.8e-3)" in fixed
    assert fixed.startswith("from repro.sim.units import ")
    compile(fixed, str(target), "exec")
    # Bit-identity of every rewritten value.
    assert units.gigabits_per_second(1) == 1e9
    assert units.seconds(20e-6) == 20e-6
    assert units.megabits_per_second(300) == 300e6
    assert units.milliseconds(5) == 0.005
    assert units.bits_per_second(2.5e9) == 2.5e9
    assert units.seconds(1.8e-3) == 1.8e-3
    # Idempotent.
    assert lint_main(["--fix", str(target), "-q"]) == 0
    assert target.read_text(encoding="utf-8") == fixed


def test_sim004_fix_extends_existing_units_import(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(
        "from repro.sim.units import seconds\n"
        "\n"
        "def build(net):\n"
        "    net.add_link(rate_bps=1e9, delay=seconds(0.001))\n",
        encoding="utf-8",
    )
    assert lint_main(["--fix", str(target), "-q"]) == 0
    fixed = target.read_text(encoding="utf-8")
    assert fixed.splitlines()[0] == (
        "from repro.sim.units import gigabits_per_second, seconds"
    )
    assert "gigabits_per_second(1)" in fixed


def test_sim004_findings_are_marked_fixable():
    source = "def f(net):\n    net.add_link(rate_bps=1e9, delay=0.25)\n"
    findings = Analyzer().lint_source(source, path="src/repro/x.py")
    sim004 = [f for f in findings if f.code == "SIM004"]
    assert len(sim004) == 2
    assert all(f.fix is not None for f in sim004)


# ----------------------------------------------------------------------
# Acceptance gate: the real tree is clean
# ----------------------------------------------------------------------


def test_real_tree_analyzes_clean():
    """src/repro carries zero whole-program findings, kept as a
    permanent regression gate (the access_rate literals in
    topology/{testbed,torus}.py once violated it; see VALIDATION.md)."""
    analyzer = ProjectAnalyzer()
    findings = analyzer.analyze_paths([REPO / "src" / "repro"])
    assert findings == [], "\n".join(f.format() for f in findings)
    assert analyzer.stats.files > 90

"""simlint integration: tree self-check, CLI, --fix round-trip.

The load-bearing test is :func:`test_src_tree_lints_clean` — it is what
makes simlint a *gate*: any future PR that reintroduces an unseeded RNG,
a wall-clock read, or a mutable default into ``src/repro`` fails tier-1.
"""

from __future__ import annotations

import json
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint import Analyzer, all_rules, iter_python_files
from repro.lint.cli import main as lint_main
from repro.lint.fixes import apply_fixes

pytestmark = pytest.mark.lint

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
FIXTURES = Path(__file__).parent / "lint_fixtures"


# ----------------------------------------------------------------------
# The gate: the shipped tree is clean, file by file.
# ----------------------------------------------------------------------


def test_src_tree_lints_clean():
    analyzer = Analyzer()
    findings = [f for path in iter_python_files([SRC]) for f in analyzer.lint_file(path)]
    assert findings == [], "simlint findings in src/repro:\n" + "\n".join(
        f.format() for f in findings
    )


@pytest.mark.parametrize(
    "path",
    sorted(SRC.rglob("*.py"), key=lambda p: p.as_posix()),
    ids=lambda p: p.relative_to(REPO).as_posix(),
)
def test_each_src_file_lints_clean(path):
    """Property-style: zero findings for every file in src/repro."""
    assert Analyzer().lint_file(path) == []


def test_linter_covers_whole_tree():
    """The directory walk sees every committed module exactly once."""
    walked = list(iter_python_files([SRC]))
    assert len(walked) == len(set(walked))
    assert set(walked) == set(SRC.rglob("*.py"))


# ----------------------------------------------------------------------
# Negative control: a deliberately hazardous module trips the rules at
# the exact lines the hazards sit on.
# ----------------------------------------------------------------------


def test_hazardous_module_trips_rules_with_line_numbers(tmp_path):
    hazardous = textwrap.dedent(
        """\
        import random
        import time


        def pick(items):
            return random.choice(items)


        def stamp():
            return time.time()


        def flush(sample):
            try:
                sample.flush()
            except Exception:
                pass
        """
    )
    module = tmp_path / "hazard.py"
    module.write_text(hazardous, encoding="utf-8")
    findings = Analyzer().lint_file(module)
    assert [(f.code, f.line) for f in findings] == [
        ("SIM001", 6),
        ("SIM002", 10),
        ("SIM010", 16),
    ]


# ----------------------------------------------------------------------
# --fix round-trip
# ----------------------------------------------------------------------


def _copy_fixable(tmp_path) -> Path:
    target = tmp_path / "fixable.py"
    shutil.copy(FIXTURES / "fixable.py", target)
    return target


def test_fix_round_trip(tmp_path):
    """--fix rewrites random.Random() and bare except, after which the
    file lints clean and still parses; a second --fix is a no-op."""
    target = _copy_fixable(tmp_path)
    assert lint_main([str(target), "-q"]) == 1
    assert lint_main(["--fix", str(target), "-q"]) == 0
    fixed = target.read_text(encoding="utf-8")
    assert "random.Random(0)" in fixed
    assert "except Exception:" in fixed
    assert "except:" not in fixed.replace("except Exception:", "")
    compile(fixed, str(target), "exec")  # still valid Python
    # Idempotent: nothing left to fix, content unchanged.
    assert lint_main(["--fix", str(target), "-q"]) == 0
    assert target.read_text(encoding="utf-8") == fixed


def test_apply_fixes_refuses_stale_spans():
    """A fix whose expected text no longer matches is skipped, not guessed."""
    source = "rng = random.Random()\n"
    findings = Analyzer().lint_source(source, path="src/repro/x.py")
    assert [f.code for f in findings] == ["SIM001"]
    drifted = "rng = other.Random()  # edited since the lint ran\n"
    fixed, applied = apply_fixes(drifted, findings)
    assert applied == 0
    assert fixed == drifted


def test_fix_only_touches_fixable_rules(tmp_path):
    """Findings without a fix (e.g. SIM002) survive --fix and keep the
    exit code at 1."""
    module = tmp_path / "mixed.py"
    module.write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n",
        encoding="utf-8",
    )
    assert lint_main(["--fix", str(module), "-q"]) == 1
    assert "time.time()" in module.read_text(encoding="utf-8")


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


def test_cli_json_format(tmp_path, capsys):
    module = tmp_path / "bad.py"
    module.write_text("import random\nx = random.random()\n", encoding="utf-8")
    assert lint_main(["--format", "json", str(module)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["checked_files"] == 1
    (finding,) = payload["findings"]
    assert finding["code"] == "SIM001"
    assert finding["line"] == 2
    assert finding["severity"] == "error"
    assert finding["fixable"] is False


def test_cli_select_and_ignore(tmp_path):
    module = tmp_path / "bad.py"
    module.write_text(
        "import random\nimport time\nx = random.random()\ny = time.time()\n",
        encoding="utf-8",
    )
    assert lint_main(["--select", "SIM002", str(module), "-q"]) == 1
    assert lint_main(["--select", "SIM003", str(module), "-q"]) == 0
    assert lint_main(["--ignore", "SIM001,SIM002", str(module), "-q"]) == 0
    with pytest.raises(SystemExit) as excinfo:
        lint_main(["--select", "SIM999", str(module)])
    assert excinfo.value.code == 2


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.code in out
    assert len(all_rules()) == 5


def test_cli_clean_directory_exits_zero(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
    assert lint_main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""


def test_syntax_error_is_reported_not_raised(tmp_path):
    module = tmp_path / "broken.py"
    module.write_text("def broken(:\n", encoding="utf-8")
    findings = Analyzer().lint_file(module)
    assert [f.code for f in findings] == ["SIM000"]
    assert "syntax error" in findings[0].message


def test_repro_cli_lint_subcommand(tmp_path, capsys):
    """`python -m repro lint` forwards to the simlint CLI verbatim."""
    module = tmp_path / "bad.py"
    module.write_text("import random\nx = random.random()\n", encoding="utf-8")
    assert repro_main(["lint", "--", str(module), "-q"]) == 1
    assert "SIM001" in capsys.readouterr().out
    assert repro_main(["lint", "--", "--list-rules"]) == 0

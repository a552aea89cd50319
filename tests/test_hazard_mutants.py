"""The hazard-mutant table in ``scripts/mutants.py`` still applies to HEAD.

Each row names a text that must occur exactly once in its file, and the
mutated file must still parse: otherwise a later re-run of the table
(``python scripts/mutants.py``) would judge a mutant that no longer
exists.  In process and without running any mutant.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_table():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = _load_table()


@pytest.mark.parametrize(
    "row", MUTANTS.MUTANTS, ids=[f"{row.code}-{row.path}-{i}" for i, row in enumerate(MUTANTS.MUTANTS)]
)
def test_row_applies_once_and_parses(row):
    path = ROOT / "src" / "repro" / row.path
    source = path.read_text(encoding="utf-8")
    assert source.count(row.old) == 1, f"{row.path}: the replaced text must occur exactly once"
    ast.parse(MUTANTS.mutated_source(row, source), filename=str(path))


def test_every_judged_family_has_five_rows_at_three_sites():
    rows = {}
    for row in MUTANTS.MUTANTS:
        rows.setdefault(row.code, []).append(row)
    for code, family in rows.items():
        sites = {
            MUTANTS.site(row, (ROOT / "src" / "repro" / row.path).read_text())
            for row in family
        }
        assert len(family) >= 5, code
        assert len(sites) >= 3, code

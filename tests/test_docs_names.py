"""Every back-ticked ``repro.*`` dotted name in the root docs must resolve.

Docs drift silently: a module is renamed, a class deleted, and the
prose keeps pointing at it.  This resolves each name the way a reader
would — import the longest importable module prefix, then ``getattr``
the rest — over every root ``*.md`` except the planning files
(ROADMAP/CHANGES/ISSUE name things that are gone or not yet built).
"""

import importlib
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PLANNING = {"ROADMAP.md", "CHANGES.md", "ISSUE.md"}
_NAME = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)(?:\(\))?`")


def documented_names():
    found = set()
    for path in sorted(REPO.glob("*.md")):
        if path.name not in PLANNING:
            for name in _NAME.findall(path.read_text(encoding="utf-8")):
                found.add((path.name, name))
    return sorted(found)


def resolve(dotted: str):
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            target = getattr(target, attribute)
        return target
    raise ImportError(dotted)


def test_every_documented_name_resolves():
    names = documented_names()
    assert len(names) > 50, "the pattern stopped matching the docs"
    broken = []
    for doc, name in names:
        try:
            resolve(name)
        except (ImportError, AttributeError) as error:
            broken.append(f"{doc}: `{name}` ({error!r})")
    assert not broken, "unresolved names in the docs:\n" + "\n".join(broken)

"""Every back-ticked ``repro.*`` dotted name in the root docs must resolve,
and every ``python -m repro ...`` command in them must still parse.

Docs drift silently: a module is renamed, a class deleted, a flag
dropped, and the prose keeps pointing at it.  This resolves each name
the way a reader would — import the longest importable module prefix,
then ``getattr`` the rest — and hands each documented command line to
the parser it would reach (``--help`` for the two lint entry points),
over every root ``*.md`` except the planning files (ROADMAP/CHANGES/ISSUE
name things that are gone or not yet built).
"""

import contextlib
import importlib
import io
import re
from pathlib import Path

from repro.cli import build_parser
from repro.lint import cli as lint_cli, smoke as lint_smoke

REPO = Path(__file__).resolve().parent.parent
PLANNING = {"ROADMAP.md", "CHANGES.md", "ISSUE.md"}
_NAME = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)(?:\(\))?`")
#: A command up to the first back-tick, comment, table bar or line end.
_COMMAND = re.compile(r"python -m (repro(?:\.lint(?:\.smoke)?)?)\b((?:[ \t]+[^\s`#|]+)*)")
_PARSERS = {
    "repro": build_parser,
    "repro.lint": lint_cli.build_parser,
    "repro.lint.smoke": lint_smoke.build_parser,
}


def documented_names():
    found = set()
    for path in sorted(REPO.glob("*.md")):
        if path.name not in PLANNING:
            for name in _NAME.findall(path.read_text(encoding="utf-8")):
                found.add((path.name, name))
    return sorted(found)


def documented_commands():
    """(file:line, module, argv) of every command with a real subcommand."""
    found = []
    for path in sorted(REPO.glob("*.md")):
        if path.name in PLANNING:
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, start=1):
            for module, rest in _COMMAND.findall(line):
                argv = [word for word in rest.split() if word != "\\"]
                if module != "repro":
                    argv = ["--help"]
                elif argv[:1] == ["--list"]:  # main()'s spelling of `list`
                    argv = ["list"]
                if argv and "<" not in argv[0]:
                    found.append((f"{path.name}:{number}", module, argv))
    return found


def first_unparsable_command():
    for where, module, argv in documented_commands():
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                _PARSERS[module]().parse_args(argv)
        except SystemExit as stop:
            if stop.code not in (0, None):
                message = stderr.getvalue().strip().splitlines()[-1]
                return f"{where}: python -m {module} {' '.join(argv)}\n  {message}"
    return None


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
    assert len(documented_commands()) > 30, "the pattern stopped matching the docs"
    stale = first_unparsable_command()
    assert stale is None, "a documented command no longer parses:\n" + stale

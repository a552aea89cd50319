"""The hot-path registry: which functions simperf holds allocation-free.

``hotpaths.toml`` (checked in next to this module) lists dotted function
qnames — ``repro.net.link.Link._finish_transmission`` — each with a
one-line ``reason`` documenting *why* it is hot (which loop drives it).
The join pass (:mod:`repro.lint.perf.analyzer`) applies SIM019/SIM020
only to registered functions, the allocation sanitizer traces only
registered functions, and ``python -m repro.lint.smoke`` fails when an
unregistered callback fires a twentieth of a golden scenario's events —
so the file cannot drift away from where the events actually go.

The file format is a deliberately tiny TOML subset: ``[section]``
headers and ``key = "string"`` pairs, ``#`` comments, hard errors on
anything else — no tomllib dependency and no silent misparses.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

DEFAULT_HOTPATHS_FILE = Path(__file__).with_name("hotpaths.toml")

_QNAME_RE = re.compile(r"^[A-Za-z_][\w]*(\.[A-Za-z_][\w]*)+$")


class HotPathError(ValueError):
    """A malformed or inconsistent hotpaths.toml."""


def _unparseable_line(origin: str, lineno: int, raw_line: str) -> HotPathError:
    return HotPathError(
        f"{origin}:{lineno}: unparseable line {raw_line!r} (the hotpaths "
        "format is [dotted.qname] sections with one `reason = \"...\"` each)"
    )


class HotPathRegistry:
    """Dotted hot-function qnames, each with a documented reason."""

    def __init__(self) -> None:
        self._reasons: Dict[str, str] = {}

    # -- construction ------------------------------------------------------

    def add(self, qname: str, reason: str) -> None:
        if not _QNAME_RE.match(qname):
            raise HotPathError(
                f"hot-path qname {qname!r} is not a dotted identifier"
            )
        if not reason.strip():
            raise HotPathError(f"hot path {qname!r} has an empty reason")
        if qname in self._reasons:
            raise HotPathError(f"duplicate hot-path entry {qname!r}")
        self._reasons[qname] = reason.strip()

    @classmethod
    def load(cls, path: Optional[Path] = None) -> "HotPathRegistry":
        path = path if path is not None else DEFAULT_HOTPATHS_FILE
        registry = cls()
        registry._parse(path.read_text(encoding="utf-8"), str(path))
        return registry

    def _parse(self, text: str, origin: str) -> None:
        """``[qname]`` headers, each followed by one ``reason = "..."``."""
        sections: Dict[str, Optional[str]] = {}
        section: Optional[str] = None
        for lineno, raw_line in enumerate(text.splitlines(), start=1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section in sections:
                    raise HotPathError(f"duplicate hot-path entry {section!r}")
                sections[section] = None
                continue
            key, equals, value = (part.strip() for part in line.partition("="))
            if not (equals and len(value) >= 2 and value[0] == value[-1] == '"'):
                raise _unparseable_line(origin, lineno, raw_line)
            if section is None:
                raise HotPathError(f"{origin}:{lineno}: key outside any [section]")
            if key != "reason":
                raise HotPathError(
                    f"{origin}:{lineno}: unknown key {key!r} "
                    "(only `reason` is allowed)"
                )
            if sections[section] is not None:
                raise HotPathError(
                    f"{origin}:{lineno}: duplicate reason for [{section}]"
                )
            sections[section] = value[1:-1]
        for section, reason in sections.items():
            if reason is None:
                raise HotPathError(
                    f"{origin}: hot path [{section}] is missing its "
                    "`reason = \"...\"` line"
                )
            self.add(section, reason)

    # -- queries -----------------------------------------------------------

    def __contains__(self, qname: object) -> bool:
        return qname in self._reasons

    def __len__(self) -> int:
        return len(self._reasons)

    def reason(self, qname: str) -> Optional[str]:
        return self._reasons.get(qname)

    def items(self) -> Iterator[Tuple[str, str]]:
        for qname in sorted(self._reasons):
            yield qname, self._reasons[qname]


__all__ = [
    "DEFAULT_HOTPATHS_FILE",
    "HotPathError",
    "HotPathRegistry",
]

"""The hot-path registry: which functions simperf holds allocation-free.

``hotpaths.toml`` (checked in next to this module) lists dotted function
qnames — ``repro.net.link.Link._finish_transmission`` — each with a
one-line ``reason`` documenting *why* it is hot (which loop drives it).
The join pass (:mod:`repro.lint.perf.analyzer`) applies SIM019/020/021/
023 only to registered functions, and SIM022 fails the build when
recorded telemetry shows a function above the wall-time share threshold
that this file does not know about.

The file format is the same deliberately tiny TOML subset as
``sinks.toml``: ``[section]`` headers and ``key = "string"`` pairs, ``#``
comments, hard errors on anything else — no tomllib dependency and no
silent misparses.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

DEFAULT_HOTPATHS_FILE = Path(__file__).with_name("hotpaths.toml")

_SECTION_RE = re.compile(r"^\[(?P<name>[^\]]+)\]\s*$")
_PAIR_RE = re.compile(
    r"^(?P<key>[A-Za-z_][A-Za-z0-9_-]*)\s*=\s*\"(?P<value>[^\"]*)\"\s*$"
)
_QNAME_RE = re.compile(r"^[A-Za-z_][\w]*(\.[A-Za-z_][\w]*)+$")


class HotPathError(ValueError):
    """A malformed or inconsistent hotpaths.toml."""


class HotPathRegistry:
    """Dotted hot-function qnames, each with a documented reason."""

    def __init__(self, origin: str = str(DEFAULT_HOTPATHS_FILE)) -> None:
        self.origin = origin
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
        registry = cls(origin=str(path))
        registry._parse(path.read_text(encoding="utf-8"), str(path))
        return registry

    @classmethod
    def from_text(
        cls, text: str, origin: str = "<inline>"
    ) -> "HotPathRegistry":
        registry = cls(origin=origin)
        registry._parse(text, origin)
        return registry

    def _parse(self, text: str, origin: str) -> None:
        section: Optional[str] = None
        reason: Optional[str] = None

        def _flush() -> None:
            if section is None:
                return
            if reason is None:
                raise HotPathError(
                    f"{origin}: hot path [{section}] is missing its "
                    "`reason = \"...\"` line"
                )
            self.add(section, reason)

        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            match = _SECTION_RE.match(line)
            if match:
                _flush()
                section = match.group("name").strip()
                reason = None
                continue
            match = _PAIR_RE.match(line)
            if match:
                if section is None:
                    raise HotPathError(
                        f"{origin}:{lineno}: key outside any [section]"
                    )
                key = match.group("key")
                if key != "reason":
                    raise HotPathError(
                        f"{origin}:{lineno}: unknown key {key!r} "
                        "(only `reason` is allowed)"
                    )
                if reason is not None:
                    raise HotPathError(
                        f"{origin}:{lineno}: duplicate reason for "
                        f"[{section}]"
                    )
                reason = match.group("value")
                continue
            raise HotPathError(
                f"{origin}:{lineno}: unparseable line {raw!r} (the "
                "hotpaths format is [dotted.qname] sections with one "
                "`reason = \"...\"` each)"
            )
        _flush()

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

"""The unit-sink registry: which parameters take which dimensions.

Sinks come from two merged sources:

* the checked-in ``sinks.toml`` next to this module — entries for
  callables whose signatures cannot carry alias annotations (or that
  predate them), keyed by dotted path::

      [repro.net.link.Link.__init__]
      rate_bps = "bits_per_second"
      delay = "seconds"

* alias-annotated parameters discovered during the per-file pass
  (``delay: Seconds`` in a signature), which phase 2 merges in via
  :meth:`SinkRegistry.add`.

The file is parsed by a deliberately tiny TOML-subset reader
(:func:`repro.lint.core.parse_toml_subset`: sections, ``key = "string"`` pairs, ``#``
comments — ``hotpaths.toml`` goes through the same function) so the
analyzer stays pure stdlib on every supported Python (``tomllib`` only
exists from 3.11).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.core import parse_toml_subset
from repro.sim.units import (
    DIM_BITS_PER_SECOND,
    DIM_BYTES,
    DIM_PACKETS,
    DIM_SECONDS,
)

#: Dimensions a registry entry may declare.
KNOWN_DIMENSIONS = frozenset(
    {DIM_SECONDS, DIM_BITS_PER_SECOND, DIM_BYTES, DIM_PACKETS}
)

DEFAULT_SINKS_FILE = Path(__file__).parent / "sinks.toml"


class SinkRegistryError(ValueError):
    """Raised for a malformed sink-registry file."""


def _unparseable_sink_line(raw_line: str, value: Optional[str]) -> str:
    if value is None:
        return f"expected 'param = \"dimension\"', got {raw_line!r}"
    return f"dimension must be a quoted string, got {value!r}"


def parse_sinks_toml(text: str, origin: str = "<sinks>") -> Dict[str, Dict[str, str]]:
    """Parse the ``[dotted.callable]`` / ``param = "dimension"`` file.

    Returns ``{dotted_callable: {param: dimension}}``.  Anything outside
    the subset (nested tables, non-string values, duplicate params) is a
    hard :class:`SinkRegistryError` — the registry is small enough that
    silence would only hide typos.
    """
    sinks: Dict[str, Dict[str, str]] = {}
    for lineno, raw_line, section, pairs in parse_toml_subset(
        text, origin, SinkRegistryError, _unparseable_sink_line
    ):
        if not section or any(not part for part in section.split(".")):
            raise SinkRegistryError(
                f"{origin}:{lineno}: malformed section header {raw_line!r}"
            )
        if section in sinks:
            raise SinkRegistryError(
                f"{origin}:{lineno}: duplicate section [{section}]"
            )
        params = sinks[section] = {}
        for lineno, param, dimension in pairs:
            if dimension not in KNOWN_DIMENSIONS:
                raise SinkRegistryError(
                    f"{origin}:{lineno}: unknown dimension {dimension!r} "
                    f"(known: {', '.join(sorted(KNOWN_DIMENSIONS))})"
                )
            if not param.isidentifier():
                raise SinkRegistryError(
                    f"{origin}:{lineno}: parameter {param!r} is not an identifier"
                )
            if param in params:
                raise SinkRegistryError(
                    f"{origin}:{lineno}: duplicate parameter {param!r} in [{section}]"
                )
            params[param] = dimension
    return sinks


class SinkRegistry:
    """Declared unit sinks, addressable by dotted path and callable name.

    ``qname`` keys are fully dotted (``repro.net.link.Link.__init__``).
    Lookup happens two ways during phase 2:

    * :meth:`by_qname` for calls the summary pass resolved exactly;
    * :meth:`by_callable_name` for attribute calls whose receiver type is
      unknown — ``net.connect(...)`` matches every sink whose callable
      name is ``connect`` (``Class.__init__`` sinks go by the class
      name, since that is what a constructor call looks like).
    """

    def __init__(self) -> None:
        self._sinks: Dict[str, Dict[str, str]] = {}

    @classmethod
    def load(cls, path: Optional[Path] = None) -> "SinkRegistry":
        """Load the checked-in registry (or ``path``)."""
        target = path if path is not None else DEFAULT_SINKS_FILE
        registry = cls()
        for qname, params in parse_sinks_toml(
            target.read_text(encoding="utf-8"), origin=str(target)
        ).items():
            for param, dimension in params.items():
                registry.add(qname, param, dimension)
        return registry

    def add(self, qname: str, param: str, dimension: str) -> None:
        if dimension not in KNOWN_DIMENSIONS:
            raise SinkRegistryError(
                f"unknown dimension {dimension!r} for {qname}.{param}"
            )
        params = self._sinks.setdefault(qname, {})
        existing = params.get(param)
        if existing is not None and existing != dimension:
            raise SinkRegistryError(
                f"conflicting dimensions for {qname}.{param}: "
                f"{existing} vs {dimension}"
            )
        params[param] = dimension

    def merge(self, other: "SinkRegistry") -> None:
        """Fold ``other``'s entries into this registry."""
        for qname, params in other.items():
            for param, dimension in params.items():
                self.add(qname, param, dimension)

    def by_qname(self, qname: str) -> Dict[str, str]:
        """``{param: dimension}`` for an exactly resolved callable."""
        return self._sinks.get(qname, {})

    def by_callable_name(self, name: str) -> List[Tuple[str, Dict[str, str]]]:
        """All sinks a bare callable name could refer to.

        A ``Class.__init__`` sink is addressed by ``Class`` (constructor
        calls), anything else by its final component.
        """
        matches: List[Tuple[str, Dict[str, str]]] = []
        for qname in sorted(self._sinks):
            parts = qname.split(".")
            callable_name = parts[-1]
            if callable_name == "__init__" and len(parts) >= 2:
                callable_name = parts[-2]
            if callable_name == name:
                matches.append((qname, self._sinks[qname]))
        return matches

    def items(self) -> Iterator[Tuple[str, Dict[str, str]]]:
        for qname in sorted(self._sinks):
            yield qname, dict(self._sinks[qname])

    def __len__(self) -> int:
        return len(self._sinks)


__all__ = [
    "DEFAULT_SINKS_FILE",
    "KNOWN_DIMENSIONS",
    "SinkRegistry",
    "SinkRegistryError",
    "parse_sinks_toml",
]

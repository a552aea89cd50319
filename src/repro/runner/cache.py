"""Content-addressed run caching: a bounded in-process tier plus an
optional on-disk tier.

The cache key is a SHA-256 over ``(schema version, repro version, kind,
config fields)`` — the *content* of the spec, not its identity — so a
result written by one process is valid in any other process running the
same code.  Disk entries are pickles stored under
``<cache-dir>/<key[:2]>/<key>.pkl`` (``~/.cache/repro`` by default,
overridable via ``$REPRO_CACHE_DIR`` or the CLI's ``--cache-dir``).

Robustness rules:

* a corrupted or truncated cache file is treated as a **miss** (and
  unlinked best-effort), never an error;
* writes go through a temp file + :func:`os.replace`, so a concurrent
  reader can never observe a partial pickle;
* the memory tier is a bounded LRU (the seed's unbounded
  ``fattree_eval._CACHE`` dict is gone);
* a miss is signalled by the :data:`MISS` sentinel, never by ``None`` —
  ``None`` is a legitimate cacheable result value, and conflating the
  two silently re-ran such specs forever.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pathlib
import pickle
import tempfile
from collections import OrderedDict
from typing import Any, Optional, Tuple

from repro import __version__
from repro.runner.spec import SOURCE_DISK, SOURCE_MEMORY, RunSpec

#: Bump when the pickled result layout changes incompatibly.  2: the
#: fingerprint's dict-key ordering changed to (type-name, repr) so
#: mixed-type keys hash instead of raising TypeError.  3: results carry
#: their sampled series as :class:`repro.metrics.series.TimeSeries`.  4:
#: fluid results hold steady-state reductions only, no trajectory.
CACHE_SCHEMA = 4

#: The one variable read here and its meaning (OBSERVABILITY.md's table).
ENV_CACHE_DIR = (
    "REPRO_CACHE_DIR", "On-disk run-cache directory (default ~/.cache/repro)."
)


class _Miss:
    """The cache-miss sentinel's type; :data:`MISS` is its only instance."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "MISS"


#: Returned by :meth:`MemoryCache.get` / :meth:`DiskCache.get` /
#: :meth:`RunCache.lookup` when nothing is cached.  Compare with ``is``.
MISS = _Miss()


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(ENV_CACHE_DIR[0])
    if env:
        return pathlib.Path(env).expanduser()
    return pathlib.Path("~/.cache/repro").expanduser()


def _stable(value: Any) -> Any:
    """A deterministic, repr-stable view of a config value."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, _stable(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    if isinstance(value, (list, tuple)):
        return tuple(_stable(item) for item in value)
    if isinstance(value, dict):
        # Sort by (type-name, repr): raw keys of mixed types (1 vs "1")
        # are not mutually orderable and would raise TypeError mid-
        # campaign; type-name-first also keeps 1 and True distinct.
        return tuple(
            (key, _stable(item))
            for key, item in sorted(
                value.items(),
                key=lambda kv: (type(kv[0]).__name__, repr(kv[0])),
            )
        )
    return value


def spec_fingerprint(spec: RunSpec) -> str:
    """The content hash addressing one spec's result on disk."""
    payload = repr((CACHE_SCHEMA, __version__, spec.kind, _stable(spec.config)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class MemoryCache:
    """A bounded LRU over (hashable) specs, sharing results in-process."""

    #: Results kept before the least recently used is evicted.
    MAX_ENTRIES = 256

    def __init__(self) -> None:
        self._entries: "OrderedDict[RunSpec, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, spec: RunSpec) -> Any:
        """The cached value, or :data:`MISS`.

        ``None`` is a valid cached value (a run function may legitimately
        return it); only the sentinel means "not cached".
        """
        try:
            value = self._entries[spec]
        except KeyError:
            return MISS
        self._entries.move_to_end(spec)
        return value

    def put(self, spec: RunSpec, value: Any) -> None:
        self._entries[spec] = value
        self._entries.move_to_end(spec)
        while len(self._entries) > self.MAX_ENTRIES:
            self._entries.popitem(last=False)


class DiskCache:
    """Pickled results under a content-addressed directory layout."""

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        self.directory = pathlib.Path(directory) if directory else default_cache_dir()

    def path_for(self, key: str) -> pathlib.Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Any:
        """The unpickled value, or :data:`MISS` (``None`` is a value)."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return MISS
        except Exception:
            # Corrupted / truncated / unreadable entry: treat as a miss
            # and drop the bad file so the rewrite heals it.
            try:
                path.unlink()
            except OSError:
                pass
            return MISS

    def put(self, key: str, value: Any) -> None:
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError):
            # Caching is best-effort; an unwritable dir must not kill a run.
            pass


class RunCache:
    """The two-tier cache a :class:`~repro.runner.campaign.Campaign` uses.

    ``memory`` serves repeat lookups within a process with *object
    identity* preserved (table/figure views that share simulations get
    the very same result object, as the old in-process memo did);
    ``disk`` persists results across processes and invocations.
    """

    def __init__(
        self,
        memory: Optional[MemoryCache] = None,
        disk: Optional[DiskCache] = None,
    ) -> None:
        self.memory = memory if memory is not None else MemoryCache()
        self.disk = disk

    def lookup(self, spec: RunSpec) -> Optional[Tuple[Any, str]]:
        """The cached value and the tier it came from, or ``None``.

        The tiers signal misses with :data:`MISS`, so a cached ``None``
        result is a hit here like any other value.
        """
        value = self.memory.get(spec)
        if value is not MISS:
            return value, SOURCE_MEMORY
        if self.disk is not None:
            value = self.disk.get(spec_fingerprint(spec))
            if value is not MISS:
                self.memory.put(spec, value)
                return value, SOURCE_DISK
        return None

    def store(self, spec: RunSpec, value: Any) -> None:
        self.memory.put(spec, value)
        if self.disk is not None:
            self.disk.put(spec_fingerprint(spec), value)


_DEFAULT_CACHE: Optional[RunCache] = None


def default_cache() -> RunCache:
    """The process-wide cache used when callers don't supply one.

    Memory tier always; a disk tier is attached iff ``$REPRO_CACHE_DIR``
    is set (the library never writes to ``~/.cache`` unless asked — the
    CLI attaches a disk tier explicitly, see :mod:`repro.cli`).
    """
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        disk = DiskCache() if os.environ.get(ENV_CACHE_DIR[0]) else None
        _DEFAULT_CACHE = RunCache(memory=MemoryCache(), disk=disk)
    return _DEFAULT_CACHE


def reset_default_cache() -> None:
    """Forget the process-wide cache (tests re-point ``$REPRO_CACHE_DIR``)."""
    global _DEFAULT_CACHE
    _DEFAULT_CACHE = None


__all__ = [
    "CACHE_SCHEMA",
    "MISS",
    "MemoryCache",
    "DiskCache",
    "RunCache",
    "default_cache",
    "default_cache_dir",
    "reset_default_cache",
    "spec_fingerprint",
]

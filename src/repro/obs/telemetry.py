"""Structured run telemetry: one JSONL document per executed cell.

A :class:`Telemetry` instance owns an output directory and appends one
:func:`~repro.obs.records.run_record` line per campaign cell to
``<dir>/runs.jsonl``.  It is threaded through the campaign runner the
same way the disk cache is: the **parent** process is the single writer
(workers only compute; every probe's report — the profile snapshot, the
sanitizers' verdicts — rides home inside the pickled
:class:`~repro.runner.spec.RunResult`), so concurrent cells never
interleave partial lines and this file is the one place reports go.

Switched on three equivalent ways:

* CLI: ``--telemetry DIR`` on any experiment subcommand (builds the
  ``Campaign(telemetry=...)`` below; nothing is left in the environment);
* environment: ``REPRO_TELEMETRY=DIR`` — every
  :class:`~repro.runner.campaign.Campaign` in the process records;
* library: ``Campaign(telemetry=Telemetry(dir))``.

Telemetry implies profiling (the record's hot-spot table comes from the
engine profiler), so the campaign runner arranges ``$REPRO_PROFILE`` for
its workers whenever telemetry is active.
"""

from __future__ import annotations

import os
import pathlib
from typing import Any, Iterable, List, Optional

from repro.obs.records import run_record, to_jsonl
from repro.sim.probe import declared, setting

#: File every campaign appends its per-run records to.
RUNS_FILENAME = "runs.jsonl"


class Telemetry:
    """Appends per-run JSONL records under one directory."""

    def __init__(self, directory: os.PathLike) -> None:
        self.directory = pathlib.Path(directory)
        self.path = self.directory / RUNS_FILENAME

    def record_results(self, results: Iterable[Any]) -> List[dict]:
        """Append one record per :class:`RunResult`; returns the records.

        Appends are a single ``write`` of the whole batch, so two
        campaigns sharing a directory interleave per batch, not per byte.
        """
        records = [run_record(result) for result in results]
        if records:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(to_jsonl(records))
        return records


def from_environment() -> Optional[Telemetry]:
    """The process-wide telemetry sink, if ``$REPRO_TELEMETRY`` names one.

    This is how the CLI's ``--telemetry DIR`` reaches campaign worker
    processes (children inherit the environment), and how a bare library
    caller opts a whole process into telemetry without touching every
    :class:`~repro.runner.campaign.Campaign` construction site.
    """
    directory = setting("REPRO_TELEMETRY")
    if directory is None:
        return None
    return Telemetry(pathlib.Path(directory).expanduser())


def render_env_table() -> str:
    """The markdown ``REPRO_*`` table embedded in OBSERVABILITY.md.

    Every variable is declared once, beside its reader: the probe
    switches on their :data:`repro.sim.probe.ENV` rows, the cache
    directory in :mod:`repro.runner.cache`.  ``tests/test_env_registry.py``
    pins the document copy to this output and AST-scans the tree so a
    variable cannot be read without being declared, nor declared unread.
    """
    from repro.runner.cache import ENV_CACHE_DIR

    lines = ["| variable | consumer | meaning |", "|---|---|---|"]
    for name, meaning in declared():
        lines.append(f"| `{name}` | `repro.sim.probe` | {meaning} |")
    lines.append("| `%s` | `repro.runner.cache` | %s |" % ENV_CACHE_DIR)
    return "\n".join(lines)


__all__ = ["RUNS_FILENAME", "Telemetry", "from_environment", "render_env_table"]

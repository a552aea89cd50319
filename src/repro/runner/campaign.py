"""The campaign executor: fan a grid of specs out, merge deterministically.

A paper evaluation is dozens of *independent* (scheme, pattern, seed)
cells; :class:`Campaign` runs such a grid through the cache and, for the
misses, over a :class:`concurrent.futures.ProcessPoolExecutor`.  The pool
stack (``concurrent.futures``, ``multiprocessing`` and what they pull in)
is imported only on the branch that forks, so a serial campaign never
loads it.  Two properties make parallelism safe here:

* every registered run function is pure — each cell builds its own
  :class:`~repro.sim.engine.Simulator` and
  :class:`~repro.sim.random.RandomStreams` from the spec alone, so a
  cell's result does not depend on which process computed it; and
* results are merged in **input order**, regardless of completion order,
  so ``jobs=4`` output is bit-identical to ``jobs=1`` output.

Workers return full :class:`~repro.runner.spec.RunResult` objects (the
parent writes cache entries, so the disk tier has a single writer per
campaign; concurrent campaigns stay safe through atomic replace).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional

from repro.runner.cache import RunCache, default_cache
from repro.runner.registry import events_of, execute
from repro.runner.spec import CellMetrics, RunResult, RunSpec
from repro.sim.probe import exported, setting


@dataclass
class CampaignResult:
    """All cells of one campaign, in the order their specs were given."""

    results: List[RunResult] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    @property
    def values(self) -> List[Any]:
        return [result.value for result in self.results]

    @property
    def cached_count(self) -> int:
        return sum(1 for r in self.results if r.metrics.cached)

    @property
    def total_events(self) -> int:
        return sum(r.metrics.events for r in self.results)

    @property
    def compute_wall_s(self) -> float:
        """Summed wall-clock of the cells that actually simulated."""
        return sum(r.metrics.wall_time_s for r in self.results if not r.metrics.cached)

    def summary(self) -> str:
        """One line for the CLI: cells, cache hits, wall, events, rate."""
        cells = len(self.results)
        cached = self.cached_count
        computed = cells - cached
        parts = [f"{cells} cell{'s' if cells != 1 else ''}"]
        if cached:
            parts.append(f"{cached} cached")
        if computed:
            wall = self.compute_wall_s
            events = sum(
                r.metrics.events for r in self.results if not r.metrics.cached
            )
            rate = events / wall if wall > 0 else 0.0
            # Summed per-cell wall: under --jobs N this exceeds real time
            # (cells overlap), so label it cell-seconds, not seconds.
            parts.append(
                f"{computed} simulated in {wall:.2f} cell-seconds"
                f" ({events:,} events, {rate:,.0f} ev/s)"
            )
        else:
            parts.append("all served from cache")
        return " | ".join(parts)

    def format_cells(self) -> str:
        """Per-cell table: label, source, wall, events, events/sec."""
        # Imported lazily: reporting lives under repro.experiments, whose
        # drivers import repro.runner back.
        from repro.experiments.reporting import format_cell_metrics

        return format_cell_metrics(self.results)


class Campaign:
    """Run grids of :class:`RunSpec` cells with caching and parallelism.

    Args:
        jobs: worker processes for cache misses; ``1`` runs inline.
            Below ``1`` is a :class:`ValueError`.
        cache: the :class:`RunCache` to consult/fill; defaults to the
            process-wide :func:`default_cache`.
        use_cache: ``False`` disables lookup *and* store (the CLI's
            ``--no-cache``).
        telemetry: a :class:`~repro.obs.telemetry.Telemetry` sink that
            receives one JSONL record per cell after the merge; defaults
            to the ``$REPRO_TELEMETRY`` directory when that is set (the
            CLI's ``--telemetry``), else off.  Like the disk cache, the
            parent process is the single writer.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[RunCache] = None,
        use_cache: bool = True,
        telemetry: Optional[Any] = None,
    ) -> None:
        self.jobs = int(jobs)
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        self.cache = (cache if cache is not None else default_cache()) if use_cache else None
        if telemetry is None:
            from repro.obs.telemetry import from_environment

            telemetry = from_environment()
        self.telemetry = telemetry

    def run(self, specs: Iterable[RunSpec]) -> CampaignResult:
        # Telemetry records embed engine profiles, so the cells that miss
        # the cache must run profiled — in-process and in pool workers
        # alike.  Exporting $REPRO_PROFILE before the pool is created
        # covers both (children inherit the environment at creation).
        if self.telemetry is None or setting("REPRO_PROFILE"):
            return self._run(specs)
        with exported("REPRO_PROFILE"):
            return self._run(specs)

    def _run(self, specs: Iterable[RunSpec]) -> CampaignResult:
        spec_list = list(specs)
        results: List[Optional[RunResult]] = [None] * len(spec_list)
        misses: List[int] = []
        for index, spec in enumerate(spec_list):
            hit = self.cache.lookup(spec) if self.cache is not None else None
            if hit is None:
                misses.append(index)
                continue
            value, source = hit
            results[index] = RunResult(
                spec=spec,
                value=value,
                metrics=CellMetrics(
                    wall_time_s=0.0, events=events_of(value), source=source
                ),
            )

        if misses:
            if self.jobs == 1 or len(misses) == 1:
                for index in misses:
                    results[index] = execute(spec_list[index])
            else:
                from concurrent.futures import ProcessPoolExecutor

                workers = min(self.jobs, len(misses))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = {
                        index: pool.submit(execute, spec_list[index])
                        for index in misses
                    }
                    # Collect in input order: the merge is deterministic
                    # no matter which worker finishes first.
                    for index in misses:
                        results[index] = futures[index].result()
            if self.cache is not None:
                for index in misses:
                    result = results[index]
                    assert result is not None
                    self.cache.store(result.spec, result.value)

        assert all(result is not None for result in results)
        outcome = CampaignResult(results=list(results))  # type: ignore[arg-type]
        if self.telemetry is not None:
            self.telemetry.record_results(outcome.results)
        return outcome


def run_spec(spec: RunSpec) -> RunResult:
    """Run a single spec — the one-cell default ``Campaign()``."""
    return Campaign().run([spec]).results[0]


__all__ = ["Campaign", "CampaignResult", "run_spec"]

"""Tests for the campaign runner: spec contract, caching tiers, parallel
determinism, and the registry.

The determinism test is the load-bearing one: ``Campaign(jobs=4)`` must
produce results *equal* to ``jobs=1`` for the same grid — the merge is in
input order and every run function is pure, so parallelism may only
change wall-clock, never output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import pickle

import pytest

from repro.experiments.fattree_eval import FatTreeScenario
from repro.experiments.workload_matrix import IncastSweepScenario, WorkloadScenario
from repro.fluid.backend import FluidScenario
from repro.net.network import Network
from repro.runner import (
    MISS,
    Campaign,
    DiskCache,
    MemoryCache,
    RunCache,
    RunSpec,
    execute,
    kind_entry,
    spec_fingerprint,
)
from repro.runner.cache import _stable
from repro.runner.spec import SOURCE_DISK, SOURCE_MEMORY, SOURCE_RUN
from repro.sim.engine import Simulator
from repro.sim.probe import ENV
from repro.validate.invariants import validating

#: Small enough that a four-cell grid simulates in a few seconds.
TINY = FatTreeScenario(
    duration=0.03,
    perm_size_min=50_000,
    perm_size_max=150_000,
    random_mean=100_000,
    random_max=300_000,
    seed=7,
)


def run_cell(spec, campaign):
    """One spec through ``campaign``."""
    return campaign.run([spec]).results[0]


def tiny_grid():
    """A small fat-tree grid: two schemes x two patterns."""
    return [
        RunSpec("fattree", dataclasses.replace(TINY, scheme=scheme,
                                               subflows=subflows,
                                               pattern=pattern))
        for scheme, subflows in (("dctcp", 1), ("xmp", 2))
        for pattern in ("permutation", "random")
    ]


class TestParallelDeterminism:
    @pytest.mark.parametrize("jobs", [0, -2])
    def test_fewer_than_one_job_is_an_error(self, jobs):
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            Campaign(jobs=jobs)

    def test_jobs4_equals_jobs1(self):
        specs = tiny_grid()
        serial = Campaign(jobs=1, use_cache=False).run(specs)
        fanned = Campaign(jobs=4, use_cache=False).run(specs)
        assert len(serial) == len(fanned) == len(specs)
        for one, four in zip(serial.results, fanned.results):
            assert one.spec == four.spec
            # FatTreeResult is a plain dataclass: == compares every flow
            # record, RTT sample and utilization reading.
            assert one.value == four.value
            assert one.metrics.events == four.metrics.events
            assert one.metrics.source == SOURCE_RUN


class TestCache:
    def spec(self):
        return RunSpec("fattree", TINY)

    def test_round_trip_through_disk(self, tmp_path):
        disk = DiskCache(tmp_path)
        first = run_cell(self.spec(), Campaign(cache=RunCache(disk=disk)))
        assert first.metrics.source == SOURCE_RUN
        # A fresh memory tier over the same directory: served from disk,
        # equal value (a new unpickled object, not the same one).
        reloaded = run_cell(self.spec(), Campaign(cache=RunCache(disk=disk)))
        assert reloaded.metrics.source == SOURCE_DISK
        assert reloaded.metrics.cached
        assert reloaded.value == first.value
        assert reloaded.value is not first.value

    def test_memory_tier_preserves_identity(self):
        cache = RunCache()
        first = run_cell(self.spec(), Campaign(cache=cache))
        again = run_cell(self.spec(), Campaign(cache=cache))
        assert again.metrics.source == SOURCE_MEMORY
        assert again.value is first.value

    def test_corrupted_file_recomputed(self, tmp_path):
        disk = DiskCache(tmp_path)
        first = run_cell(self.spec(), Campaign(cache=RunCache(disk=disk)))
        path = disk.path_for(spec_fingerprint(self.spec()))
        assert path.exists()
        path.write_bytes(b"not a pickle")
        rerun = run_cell(self.spec(), Campaign(cache=RunCache(disk=disk)))
        assert rerun.metrics.source == SOURCE_RUN
        assert rerun.value == first.value
        # The rewrite healed the entry.
        with open(path, "rb") as handle:
            assert pickle.load(handle) == first.value

    def test_truncated_file_recomputed(self, tmp_path):
        disk = DiskCache(tmp_path)
        run_cell(self.spec(), Campaign(cache=RunCache(disk=disk)))
        path = disk.path_for(spec_fingerprint(self.spec()))
        path.write_bytes(path.read_bytes()[:10])
        rerun = run_cell(self.spec(), Campaign(cache=RunCache(disk=disk)))
        assert rerun.metrics.source == SOURCE_RUN

    def test_no_cache_bypasses_everything(self, tmp_path):
        disk = DiskCache(tmp_path)
        cache = RunCache(disk=disk)
        run_cell(self.spec(), Campaign(cache=cache))
        forced = run_cell(self.spec(), Campaign(cache=cache, use_cache=False))
        assert forced.metrics.source == SOURCE_RUN
        assert not forced.metrics.cached

    def test_unwritable_directory_is_nonfatal(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the cache dir should be")
        result = run_cell(self.spec(), Campaign(cache=RunCache(disk=DiskCache(blocked))))
        assert result.metrics.source == SOURCE_RUN

    def test_memory_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(MemoryCache, "MAX_ENTRIES", 3)
        cache = MemoryCache()
        specs = [RunSpec("fattree", dataclasses.replace(TINY, seed=i))
                 for i in range(5)]
        for i, spec in enumerate(specs):
            cache.put(spec, i)
        assert len(cache) == 3
        assert cache.get(specs[0]) is MISS
        assert cache.get(specs[4]) == 4

    def test_cached_none_is_a_hit_not_a_miss(self, tmp_path):
        """Regression: a legitimately cached ``None`` result must hit.

        The old tiers signalled misses with ``None``, so a spec whose run
        function returned ``None`` was silently re-simulated forever.
        """
        spec = self.spec()
        memory = MemoryCache()
        memory.put(spec, None)
        assert memory.get(spec) is None
        assert memory.get(spec) is not MISS

        disk = DiskCache(tmp_path)
        key = spec_fingerprint(spec)
        disk.put(key, None)
        assert disk.get(key) is None
        assert disk.get(key) is not MISS

        # Through both RunCache tiers: memory first, then disk promote.
        cache = RunCache(memory=memory, disk=disk)
        assert cache.lookup(spec) == (None, SOURCE_MEMORY)
        cache.memory = MemoryCache()
        assert cache.lookup(spec) == (None, SOURCE_DISK)
        # The disk hit was promoted back into the memory tier.
        assert cache.lookup(spec) == (None, SOURCE_MEMORY)

    def test_uncached_spec_still_misses(self, tmp_path):
        cache = RunCache(memory=MemoryCache(), disk=DiskCache(tmp_path))
        assert cache.lookup(self.spec()) is None

    def test_mixed_type_dict_keys_fingerprint(self):
        """Regression: sorting raw mixed-type keys raised TypeError."""
        mixed = {1: "a", "b": 2, (3, 4): "c", None: 0, 1.5: "d"}
        stable = _stable(mixed)
        # Insertion order must not matter: keys sort by (type name, repr).
        assert stable == _stable(dict(reversed(list(mixed.items()))))
        # End-to-end: a spec whose config carries such a dict fingerprints.
        fingerprint = spec_fingerprint(RunSpec("fattree", (("opts", mixed),)))
        assert len(fingerprint) == 64

    def test_fingerprint_is_content_addressed(self):
        same = spec_fingerprint(RunSpec("fattree", TINY))
        assert spec_fingerprint(RunSpec("fattree", dataclasses.replace(TINY))) == same
        assert spec_fingerprint(
            RunSpec("fattree", dataclasses.replace(TINY, seed=8))
        ) != same
        assert spec_fingerprint(RunSpec("fig1", TINY)) != same


class TestCampaignResult:
    def test_summary_and_cells(self):
        cache = RunCache()
        specs = [RunSpec("fattree", TINY)]
        cold = Campaign(cache=cache).run(specs)
        assert cold.cached_count == 0
        assert cold.total_events > 0
        assert "1 simulated" in cold.summary()
        warm = Campaign(cache=cache).run(specs)
        assert warm.cached_count == 1
        assert "all served from cache" in warm.summary()
        table = warm.format_cells()
        assert "memory" in table
        assert "fattree" in table


#: Every kind the registry ships with.
KINDS = ("fattree", "fig1", "fig4", "fig6", "fig7", "workload", "incast_sweep", "fluid")


class TestRegistry:
    def test_all_drivers_registered(self):
        assert [kind_entry(kind).name for kind in KINDS] == list(KINDS)

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError, match="fattree"):
            kind_entry("nonsense")

    def test_entries_resolve(self):
        for name in KINDS:
            assert callable(kind_entry(name).resolve())


#: One short cell of each kind that builds a topology, which is a
#: reference cycle by construction (links hold their own bound methods).
BOUNDARY_CELLS = {
    "fattree": RunSpec("fattree", dataclasses.replace(TINY, duration=0.005)),
    "workload": RunSpec("workload", WorkloadScenario(duration=0.005)),
    "incast_sweep": RunSpec("incast_sweep", IncastSweepScenario(duration=0.005)),
    "fluid": RunSpec("fluid", FluidScenario(duration=0.002)),
}


class TestCellBoundary:
    """``execute`` frees the cell's topology before it returns."""

    @pytest.mark.parametrize("validated", [False, True], ids=["bare", "validated"])
    @pytest.mark.parametrize("kind", BOUNDARY_CELLS)
    def test_no_simulator_or_network_outlives_the_cell(self, kind, validated, monkeypatch):
        for row in ENV.values():
            for name in row.switches:
                monkeypatch.delenv(name, raising=False)
        was_enabled = gc.isenabled()
        gc.collect()  # earlier tests' garbage, so the census below is this cell's
        gc.disable()
        try:
            with contextlib.ExitStack() as stack:
                if validated:
                    # An active validator gets the cell a fresh one, which
                    # holds the cell's connections and simulator until
                    # execute has finished it.
                    stack.enter_context(validating())
                result = execute(BOUNDARY_CELLS[kind])
                left = [
                    type(obj).__name__
                    for obj in gc.get_objects()
                    if isinstance(obj, (Simulator, Network))
                ]
        finally:
            if was_enabled:
                gc.enable()
        assert left == []
        assert ("validate" in result.metrics.probes) == validated
        assert result.metrics.events > 0

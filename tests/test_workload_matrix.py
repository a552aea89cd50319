"""The workload/incast experiment kinds: cells, campaigns, CLI, caching.

Cells here run with tiny horizons (a few milliseconds) — enough traffic
to exercise the open-loop launcher, the partition-aggregate pattern and
the reducers, while keeping the whole module in seconds.
"""

from __future__ import annotations

import pytest

from repro.experiments.catalog import run
from repro.experiments.workload_matrix import (
    IncastSweepScenario,
    WorkloadScenario,
    _simulate_incast,
    _simulate_workload,
)
from repro.mptcp.coupling import parse_scheme_spec
from repro.runner import Campaign, RunSpec, kind_entry
from repro.runner.cache import DiskCache, MemoryCache, RunCache
from repro.validate.golden import digest_incast_sweep, digest_workload

TINY = WorkloadScenario(duration=0.008, load=0.4, queue_sample_interval=0.002)
TINY_INCAST = IncastSweepScenario(
    duration=0.008, fan_in=4, queue_sample_interval=0.002
)


class TestWorkloadCell:
    def test_registered_kinds(self):
        assert kind_entry("workload").function == "_simulate_workload"
        assert kind_entry("incast_sweep").function == "_simulate_incast"

    def test_cell_accounting_is_consistent(self):
        result = _simulate_workload(TINY)
        assert result.scheduled_flows > 0
        assert result.launched_flows == result.scheduled_flows
        assert len(result.records) + len(result.unfinished) == result.launched_flows
        assert result.offered_bytes > 0
        assert result.capacity_bps == pytest.approx(16e9)
        assert result.events > 0

    def test_fct_records_satisfy_invariants(self):
        result = _simulate_workload(TINY)
        for rec in result.records:
            fct = rec.complete_time - rec.start_time
            assert 0 < fct <= TINY.duration
        table = result.fct_table()
        assert set(table) == {"mice", "medium", "elephant"}
        assert result.queue_p99() >= 0.0
        assert 0.0 < result.achieved_load() <= 1.5

    def test_queue_samples_cover_every_layer(self):
        result = _simulate_workload(TINY)
        assert set(result.queue_samples) == {"rack", "aggregation", "core"}

    def test_elephant_background_runs_alongside(self):
        scenario = WorkloadScenario(
            duration=0.008, load=0.2, background_elephants=2,
            queue_sample_interval=0.002,
        )
        result = _simulate_workload(scenario)
        assert len(result.elephants) == 2
        # Sized to outlive the horizon: none of them may have finished.
        assert all(e.complete_time is None for e in result.elephants)

    def test_seed_changes_cell(self):
        a = digest_workload(_simulate_workload(TINY))
        b = digest_workload(
            _simulate_workload(WorkloadScenario(
                duration=0.008, load=0.4, queue_sample_interval=0.002, seed=2,
            ))
        )
        assert a != b

    def test_load_changes_schedule(self):
        low = _simulate_workload(TINY)
        high = _simulate_workload(
            WorkloadScenario(
                duration=0.008, load=0.8, queue_sample_interval=0.002
            )
        )
        assert high.scheduled_flows > low.scheduled_flows


class TestIncastCell:
    def test_rounds_complete_and_collapse_bounded(self):
        result = _simulate_incast(TINY_INCAST)
        assert result.jobs_started >= len(result.jcts) > 0
        assert all(0 < jct <= TINY_INCAST.duration for jct in result.jcts)
        assert 0.0 < result.collapse_ratio() <= 1.0
        assert result.access_rate_bps == pytest.approx(1e9)
        assert len(result.responses) >= TINY_INCAST.fan_in

    def test_larger_fan_in_starts_fewer_rounds(self):
        small = _simulate_incast(TINY_INCAST)
        big = _simulate_incast(
            IncastSweepScenario(
                duration=0.008, fan_in=12, queue_sample_interval=0.002
            )
        )
        assert big.jobs_started <= small.jobs_started


class TestDeterminismAndCache:
    SCHEMES = (("xmp", 2), ("dctcp", 1))
    LOADS = (0.3, 0.6)

    def test_jobs_1_equals_jobs_4(self):
        serial = run(
            "workload", TINY, Campaign(jobs=1, use_cache=False),
            schemes=self.SCHEMES, loads=self.LOADS,
        )
        parallel = run(
            "workload", TINY, Campaign(jobs=4, use_cache=False),
            schemes=self.SCHEMES, loads=self.LOADS,
        )
        assert list(serial.cells) == list(parallel.cells)
        for key in serial.cells:
            assert digest_workload(serial.cells[key]) == digest_workload(
                parallel.cells[key]
            ), f"jobs=4 diverged from jobs=1 at cell {key}"

    def test_cache_hit_equals_cache_miss(self, tmp_path):
        cache = RunCache(memory=MemoryCache(), disk=DiskCache(tmp_path))
        cold = run(
            "incast", TINY_INCAST, Campaign(cache=cache),
            schemes=(("xmp", 2),), fan_ins=(2, 4),
        )
        assert cold.campaign.cached_count == 0
        warm = run(
            "incast", TINY_INCAST, Campaign(cache=cache),
            schemes=(("xmp", 2),), fan_ins=(2, 4),
        )
        assert warm.campaign.cached_count == 2
        for key in cold.cells:
            assert digest_incast_sweep(cold.cells[key]) == digest_incast_sweep(
                warm.cells[key]
            )

    def test_spec_roundtrips_through_runner(self):
        outcome = Campaign(jobs=1, use_cache=False).run(
            [RunSpec("workload", TINY)]
        )
        result = outcome.results[0].value
        assert result.scenario == TINY


class TestDriversAndFormat:
    def test_workload_matrix_format(self):
        result = run(
            "workload", TINY, Campaign(use_cache=False),
            schemes=(("xmp", 2),), loads=(0.3,),
        )
        text = result.format()
        assert "Workload matrix" in text
        assert "websearch" in text
        assert "mice p50 (ms)" in text
        assert "99p queue (pkt)" in text
        assert "XMP-2" in text
        assert [label for label, _load in result.cells] == ["XMP-2/websearch@0.3"]

    def test_incast_sweep_format(self):
        result = run(
            "incast", TINY_INCAST, Campaign(use_cache=False),
            schemes=(("dctcp", 1),), fan_ins=(4,),
        )
        text = result.format()
        assert "Incast fan-in sweep" in text
        assert "collapse" in text
        assert "DCTCP" in text

    def test_parse_scheme_spec(self):
        assert parse_scheme_spec("xmp-2") == ("xmp", 2)
        assert parse_scheme_spec("dctcp") == ("dctcp", 1)
        assert parse_scheme_spec("LIA-4") == ("lia", 4)
        assert parse_scheme_spec("reno-ecn") == ("reno-ecn", 1)


class TestCli:
    def test_workload_subcommand(self, capsys):
        from repro.cli import main

        code = main([
            "workload", "--loads", "0.3", "--schemes", "xmp-2",
            "--duration", "0.006", "--no-cache",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Workload matrix" in out
        assert "[runner]" in out

    def test_incast_subcommand(self, capsys):
        from repro.cli import main

        code = main([
            "incast", "--fan-ins", "4", "--schemes", "xmp-2",
            "--duration", "0.006", "--no-cache",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Incast fan-in sweep" in out

    def test_list_mentions_new_experiments(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "workload" in out
        assert "incast" in out

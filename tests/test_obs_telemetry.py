"""Telemetry tests (repro.obs): the JSONL sink, the record schema, the
samplers' plain-value series, and the determinism contract — records identical across
``--jobs 1`` / ``--jobs 4`` and cache hit / miss modulo the wall-clock
and provenance fields, and profiling never changing simulation output.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.experiments.fattree_eval import FatTreeScenario
from repro.metrics.collector import QueueMonitor, RateSampler
from repro.mptcp.connection import MptcpConnection
from repro.obs.records import (
    TELEMETRY_SCHEMA,
    deterministic_view,
    to_jsonl,
)
from repro.obs.telemetry import Telemetry, from_environment
from repro.runner import Campaign, MemoryCache, RunCache, RunSpec
from repro.runner.spec import SOURCE_MEMORY, SOURCE_RUN


def read_records(telemetry):
    """Every record the sink has written, oldest first."""
    if not telemetry.path.exists():
        return []
    return [json.loads(line) for line in telemetry.path.read_text().splitlines()]


TINY = FatTreeScenario(
    duration=0.02,
    perm_size_min=50_000,
    perm_size_max=150_000,
    random_mean=100_000,
    random_max=300_000,
    seed=11,
)


def grid():
    return [
        RunSpec("fattree", dataclasses.replace(TINY, scheme=scheme,
                                               subflows=subflows))
        for scheme, subflows in (("dctcp", 1), ("xmp", 2))
    ]


@pytest.fixture(autouse=True)
def _clean_obs_env(monkeypatch):
    """Telemetry/profiling must be off unless a test turns it on."""
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)


class TestTelemetrySink:
    def test_writes_valid_jsonl(self, tmp_path):
        telemetry = Telemetry(tmp_path / "telem")
        specs = grid()
        Campaign(jobs=1, use_cache=False, telemetry=telemetry).run(specs)
        assert telemetry.path.exists()
        lines = telemetry.path.read_text().splitlines()
        assert len(lines) == len(specs)
        for line, spec in zip(lines, specs):
            record = json.loads(line)
            assert record["schema"] == TELEMETRY_SCHEMA
            assert record["kind"] == "fattree"
            assert record["label"] == spec.label()
            assert len(record["fingerprint"]) == 64
            assert record["source"] == SOURCE_RUN
            assert record["cached"] is False
            assert record["events"] > 0
            assert record["sim_time_s"] == pytest.approx(0.02)
            assert record["wall_time_s"] > 0
            assert record["wall_sim_ratio"] > 0
            # A miss runs profiled under telemetry: the profile is there
            # and its event total matches the engine's.
            profile = record["profile"]
            assert profile is not None
            assert profile["events"] == record["events"]
            assert profile["hotspots"]
            assert profile["heap"]["pushes"] >= profile["heap"]["pops"] > 0

    def test_appends_across_campaigns(self, tmp_path):
        telemetry = Telemetry(tmp_path)
        spec = grid()[:1]
        Campaign(jobs=1, use_cache=False, telemetry=telemetry).run(spec)
        Campaign(jobs=1, use_cache=False, telemetry=telemetry).run(spec)
        assert len(read_records(telemetry)) == 2

    def test_profile_switched_off_still_profiles_telemetry(self, tmp_path, monkeypatch):
        # REPRO_PROFILE=0 means "off", so telemetry must still switch the
        # profiler on for the cells it records.
        monkeypatch.setenv("REPRO_PROFILE", "0")
        telemetry = Telemetry(tmp_path)
        Campaign(jobs=1, use_cache=False, telemetry=telemetry).run(grid()[:1])
        (record,) = read_records(telemetry)
        assert record["profile"] is not None

    def test_empty_batch_writes_nothing(self, tmp_path):
        telemetry = Telemetry(tmp_path / "never")
        assert telemetry.record_results([]) == []
        assert not telemetry.path.exists()
        assert read_records(telemetry) == []

    def test_from_environment(self, tmp_path, monkeypatch):
        assert from_environment() is None
        monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "t"))
        telemetry = from_environment()
        assert telemetry is not None
        assert telemetry.path == tmp_path / "t" / "runs.jsonl"
        # Campaigns pick the sink up without being handed one.
        assert Campaign(jobs=1, use_cache=False).telemetry is not None

    def test_jsonl_is_sorted_and_compact(self):
        text = to_jsonl([{"b": 1, "a": [2, None]}])
        assert text == '{"a":[2,null],"b":1}\n'


class TestDeterminism:
    def test_jobs1_equals_jobs4(self, tmp_path):
        """ISSUE contract: records identical across --jobs 1 / --jobs 4
        modulo wall-clock fields."""
        specs = grid()
        serial = Telemetry(tmp_path / "serial")
        fanned = Telemetry(tmp_path / "fanned")
        Campaign(jobs=1, use_cache=False, telemetry=serial).run(specs)
        Campaign(jobs=4, use_cache=False, telemetry=fanned).run(specs)
        serial_views = [deterministic_view(r) for r in read_records(serial)]
        fanned_views = [deterministic_view(r) for r in read_records(fanned)]
        assert serial_views == fanned_views
        # The stripped profile still pins per-component event counts.
        assert serial_views[0]["profile"]["components"]

    def test_cache_hit_equals_miss(self, tmp_path):
        """Hit and miss records agree on everything the spec determines.

        The hit's ``profile`` is null (nothing executed), so the
        comparison blanks both profiles; provenance fields are the other
        intended difference and are stripped by the view.
        """
        spec = grid()[:1]
        cache = RunCache(memory=MemoryCache())
        cold = Telemetry(tmp_path / "cold")
        warm = Telemetry(tmp_path / "warm")
        Campaign(jobs=1, cache=cache, telemetry=cold).run(spec)
        Campaign(jobs=1, cache=cache, telemetry=warm).run(spec)
        [miss] = read_records(cold)
        [hit] = read_records(warm)
        assert miss["source"] == SOURCE_RUN and not miss["cached"]
        assert hit["source"] == SOURCE_MEMORY and hit["cached"]
        assert miss["profile"] is not None
        assert hit["profile"] is None
        assert hit["wall_sim_ratio"] is None
        assert deterministic_view(dict(hit, profile=None)) == deterministic_view(
            dict(miss, profile=None)
        )

    def test_profiling_does_not_change_results(self, monkeypatch):
        """Byte-identical experiment output with profiling on vs off."""
        specs = grid()
        plain = Campaign(jobs=1, use_cache=False).run(specs)
        monkeypatch.setenv("REPRO_PROFILE", "1")
        profiled = Campaign(jobs=1, use_cache=False).run(specs)
        for off, on in zip(plain.results, profiled.results):
            assert off.metrics.profile is None
            assert on.metrics.profile is not None
            assert off.value == on.value
            assert off.metrics.events == on.metrics.events


class TestDrainHelpers:
    @pytest.fixture
    def ran_net(self, two_host_net):
        net = two_host_net
        conn = MptcpConnection(net, "A", "B", net.paths("A", "B"),
                               scheme="xmp")
        rates = RateSampler(net.sim, interval=0.005, until=0.03)
        rates.add_sender("f", conn.subflows[0].sender)
        queues = QueueMonitor(net.sim, net.links, interval=0.005, until=0.03)
        rates.start(0.005)
        queues.start(0.005)
        conn.start()
        net.sim.run(until=0.03)
        return net, conn, rates, queues

    def test_drain_sampler_shapes(self, ran_net):
        """A sampler needs no drain helper: its ``series`` is already a
        plain value — same shape for every sampler, no simulator
        reference, picklable as it stands."""
        net, _conn, rates, queues = ran_net
        assert list(rates.series.columns) == ["f"]
        assert len(rates.series.times) == len(rates.series["f"]) > 0
        assert list(queues.series.columns) == [link.name for link in net.links]
        assert queues.series.times == rates.series.times
        for series in (rates.series, queues.series):
            assert pickle.loads(pickle.dumps(series)) == series

"""Tests for the workload patterns (permutation / random / incast)."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.fattree import build_fattree
from repro.traffic.factory import TransferFactory
from repro.traffic.incast import CONCURRENT_JOBS, SERVERS_PER_JOB
from repro.traffic.permutation import PermutationPattern, random_derangement
from repro.traffic.random_pattern import MAX_IN_DEGREE, RandomPattern
from repro.workloads.partition_aggregate import (
    DEFAULT_REQUEST_BYTES as REQUEST_BYTES,
    DEFAULT_RESPONSE_BYTES as RESPONSE_BYTES,
    PartitionAggregatePattern,
)


@pytest.fixture
def fattree():
    return build_fattree(k=4)


def incast(factory, hosts, rng, concurrent_jobs=CONCURRENT_JOBS):
    """The paper's incast jobs: one factory both ways, 8 servers a job."""
    return PartitionAggregatePattern(
        factory, factory, hosts, fan_in=SERVERS_PER_JOB,
        concurrent_jobs=concurrent_jobs, rng=rng,
    )


def factory_for(net, scheme="xmp", subflows=2, label=None):
    return TransferFactory(
        net, scheme, subflow_count=subflows, rng=random.Random(1), label=label
    )


class TestDerangement:
    def test_no_fixed_points(self):
        items = [f"h{i}" for i in range(10)]
        targets = random_derangement(items, random.Random(0))
        assert all(a != b for a, b in zip(items, targets))

    def test_is_permutation(self):
        items = [f"h{i}" for i in range(10)]
        targets = random_derangement(items, random.Random(0))
        assert sorted(targets) == sorted(items)

    def test_two_items(self):
        assert random_derangement(["a", "b"], random.Random(0)) == ["b", "a"]

    def test_single_item_rejected(self):
        with pytest.raises(ValueError):
            random_derangement(["a"], random.Random(0))

    @given(n=st.integers(2, 30), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_property(self, n, seed):
        items = list(range(n))
        targets = random_derangement(items, random.Random(seed))
        assert sorted(targets) == items
        assert all(a != b for a, b in zip(items, targets))


class TestFactory:
    def test_launch_records_on_completion(self, fattree):
        factory = factory_for(fattree)
        conn = factory.launch("h_0_0_0", "h_1_0_0", 500_000)
        fattree.sim.run(until=1.0)
        assert conn.completed
        assert len(factory.records) == 1
        record = factory.records[0]
        assert record.category == "inter-pod"
        assert record.scheme == "XMP-2"
        assert record.complete_time is not None

    def test_single_path_scheme_gets_one_subflow(self, fattree):
        factory = factory_for(fattree, scheme="dctcp", subflows=1)
        conn = factory.launch("h_0_0_0", "h_1_0_0", 100_000)
        assert len(conn.subflows) == 1

    def test_multipath_subflows_use_distinct_paths(self, fattree):
        factory = factory_for(fattree, scheme="xmp", subflows=4)
        conn = factory.launch("h_0_0_0", "h_1_0_0", 100_000)
        paths = [s.path for s in conn.subflows]
        assert len(set(paths)) == 4

    def test_default_labels(self, fattree):
        assert factory_for(fattree, "xmp", 2).label == "XMP-2"
        assert factory_for(fattree, "dctcp", 1).label == "DCTCP"

    def test_unfinished_records(self, fattree):
        factory = factory_for(fattree)
        factory.launch("h_0_0_0", "h_1_0_0", 50_000_000)
        fattree.sim.run(until=0.02)
        unfinished = factory.unfinished_records(0.02)
        assert len(unfinished) == 1
        assert unfinished[0].complete_time is None
        assert unfinished[0].goodput_bps(0.02) > 0

    def test_all_records_merges(self, fattree):
        factory = factory_for(fattree)
        factory.launch("h_0_0_0", "h_1_0_0", 100_000)
        factory.launch("h_0_0_1", "h_1_0_1", 50_000_000)
        fattree.sim.run(until=0.05)
        assert len(factory.all_records(0.05)) == 2

    def test_no_path_rejected(self, fattree):
        factory = factory_for(fattree)
        with pytest.raises(ValueError):
            factory.launch("h_0_0_0", "h_0_0_0", 1000)

    def test_subflow_count_validation(self, fattree):
        with pytest.raises(ValueError):
            TransferFactory(fattree, "xmp", subflow_count=0, rng=random.Random(0))


class TestPermutationPattern:
    def test_round_launches_one_flow_per_host(self, fattree):
        factory = factory_for(fattree)
        pattern = PermutationPattern(
            factory, fattree.host_names, 50_000, 100_000, rng=random.Random(0)
        )
        pattern.start()
        pattern.stop()
        assert pattern.flows_started == 16
        destinations = [c.dst for c in factory.active.values()]
        assert sorted(destinations) == sorted(fattree.host_names)

    def test_new_round_after_completion(self, fattree):
        factory = factory_for(fattree)
        pattern = PermutationPattern(
            factory, fattree.host_names, 20_000, 40_000, rng=random.Random(0)
        )

        def stop_in_third_round(connection):
            if pattern.rounds_started == 3:
                pattern.stop()

        factory.on_launch = stop_in_third_round
        pattern.start()
        fattree.sim.run(until=2.0)
        assert pattern.rounds_started == 3
        assert len(factory.records) == 48

    def test_stop_prevents_new_rounds(self, fattree):
        factory = factory_for(fattree)
        pattern = PermutationPattern(
            factory, fattree.host_names, 20_000, 40_000, rng=random.Random(0)
        )
        pattern.start()
        pattern.stop()
        fattree.sim.run(until=1.0)
        assert pattern.rounds_started == 1

    def test_sizes_within_range(self, fattree):
        factory = factory_for(fattree)
        pattern = PermutationPattern(
            factory, fattree.host_names, 50_000, 100_000, rng=random.Random(0)
        )
        pattern.start()
        pattern.stop()
        fattree.sim.run(until=2.0)
        for record in factory.records:
            assert 50_000 <= record.size_bytes <= 100_000

    def test_size_validation(self, fattree):
        with pytest.raises(ValueError):
            PermutationPattern(
                factory_for(fattree), fattree.host_names, 100, 50,
                rng=random.Random(0),
            )


class TestRandomPattern:
    def test_every_host_issues_a_flow(self, fattree):
        factory = factory_for(fattree)
        pattern = RandomPattern(
            factory, fattree.host_names, mean_bytes=50_000, max_bytes=100_000,
            rng=random.Random(0),
        )
        pattern.start()
        assert pattern.flows_started == 16

    def test_back_to_back_replacement(self, fattree):
        factory = factory_for(fattree)
        pattern = RandomPattern(
            factory, fattree.host_names, mean_bytes=30_000, max_bytes=60_000,
            rng=random.Random(0),
        )
        pattern.start()
        fattree.sim.run(until=0.5)
        assert pattern.flows_started > 16
        assert len(factory.active) == 16  # always one per source

    def test_in_degree_respected(self, fattree):
        # 16 sources onto 4 destinations: only the cap keeps any one of
        # them from drawing more than MAX_IN_DEGREE flows.
        factory = factory_for(fattree)
        pattern = RandomPattern(
            factory, fattree.host_names, mean_bytes=50_000_000,
            max_bytes=50_000_000, rng=random.Random(0),
            destinations=fattree.host_names[:4],
        )
        pattern.start()
        fattree.sim.run(until=0.01)
        in_degree = Counter(c.dst for c in factory.active.values())
        assert max(in_degree.values()) == MAX_IN_DEGREE

    def test_exclude_same_rack(self, fattree):
        factory = factory_for(fattree)
        pattern = RandomPattern(
            factory, fattree.host_names, mean_bytes=30_000, max_bytes=60_000,
            rng=random.Random(0), exclude_same_rack=True,
        )
        pattern.start()
        fattree.sim.run(until=0.3)
        for record in factory.all_records(0.3):
            assert record.category != "inner-rack"

    def test_stop_halts_replacement(self, fattree):
        factory = factory_for(fattree)
        pattern = RandomPattern(
            factory, fattree.host_names, mean_bytes=30_000, max_bytes=60_000,
            rng=random.Random(0),
        )
        pattern.start()
        pattern.stop()
        fattree.sim.run(until=0.5)
        assert pattern.flows_started == 16


class TestIncastPattern:
    def test_constants_match_paper(self):
        assert REQUEST_BYTES == 2_000
        assert RESPONSE_BYTES == 64_000

    def test_jobs_complete_and_chain(self, fattree):
        factory = TransferFactory(fattree, "tcp", rng=random.Random(2))
        pattern = incast(factory, fattree.host_names, rng=random.Random(3))
        pattern.start()
        fattree.sim.run(until=0.5)
        assert pattern.completed_jobs
        assert pattern.jobs_started >= 8 + len(pattern.completed_jobs) - 8
        for jct in pattern.completion_times():
            assert jct > 0

    def test_concurrent_jobs_count(self, fattree):
        factory = TransferFactory(fattree, "tcp", rng=random.Random(2))
        pattern = incast(
            factory, fattree.host_names, concurrent_jobs=3, rng=random.Random(3)
        )
        pattern.start()
        assert pattern.jobs_started == 3

    def test_job_traffic_volume(self, fattree):
        # Each job moves 8 requests + 8 responses.
        factory = TransferFactory(fattree, "tcp", rng=random.Random(2))
        pattern = incast(
            factory, fattree.host_names, concurrent_jobs=1, rng=random.Random(3)
        )
        pattern.start()
        fattree.sim.run(until=0.5)
        done = len(pattern.completed_jobs)
        assert done >= 1
        finished_records = factory.records
        requests = [r for r in finished_records if r.size_bytes == REQUEST_BYTES]
        responses = [r for r in finished_records if r.size_bytes == RESPONSE_BYTES]
        assert len(requests) >= 8 * done
        assert len(responses) >= 8 * done

    def test_stop(self, fattree):
        factory = TransferFactory(fattree, "tcp", rng=random.Random(2))
        pattern = incast(factory, fattree.host_names, rng=random.Random(3))
        pattern.start()
        pattern.stop()
        fattree.sim.run(until=0.5)
        assert pattern.jobs_started == 8

    def test_needs_enough_hosts(self, fattree):
        factory = TransferFactory(fattree, "tcp", rng=random.Random(2))
        with pytest.raises(ValueError):
            incast(factory, fattree.host_names[:5], rng=random.Random(3))

    def test_is_partition_aggregate_at_the_paper_constants(self):
        def run(make_pattern):
            net = build_fattree(k=4)
            factory = TransferFactory(net, "tcp", rng=random.Random(2))
            pattern = make_pattern(factory, net.host_names)
            pattern.start()
            net.sim.run(until=0.3)
            return pattern.completion_times(), pattern.jobs_started, factory.records

        paper = run(lambda f, hosts: incast(f, hosts, rng=random.Random(3)))
        spelled_out = run(lambda f, hosts: PartitionAggregatePattern(
            f, f, hosts, fan_in=8, request_bytes=2_000, response_bytes=64_000,
            concurrent_jobs=8, rng=random.Random(3),
        ))
        assert paper[0] and paper == spelled_out

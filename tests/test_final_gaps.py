"""Final coverage round: random-pattern views, constructor plumbing,
and factory behaviour on non-fat-tree networks."""

import dataclasses
import random

import pytest

from repro.experiments.catalog import run
from repro.experiments.fattree_eval import FatTreeScenario, run_fattree
from repro.mptcp.connection import MptcpConnection
from repro.topology.bottleneck import build_single_bottleneck
from repro.traffic.factory import TransferFactory
from repro.transport.tcp import INITIAL_CWND

TINY = FatTreeScenario(
    duration=0.08,
    random_mean=100_000,
    random_max=300_000,
    seed=13,
)
RANDOM = dataclasses.replace(TINY, pattern="random")
SCHEMES = (("xmp", 2),)


class TestRandomPatternViews:
    def test_fig10_random(self):
        result = run("rtt", RANDOM, schemes=SCHEMES)
        assert result.rtt["XMP-2"]
        for summary in result.rtt["XMP-2"].values():
            assert summary["p50"] > 0

    def test_fig11_random(self):
        result = run("utilization", RANDOM, schemes=SCHEMES)
        layers = result.utilization["XMP-2"]
        assert set(layers) == {"core", "aggregation", "rack"}

    def test_random_runs_have_unfinished_tail(self):
        run = run_fattree(dataclasses.replace(TINY, scheme="xmp", subflows=2,
                                              pattern="random"))
        # Random keeps one flow per source alive at all times.
        assert run.unfinished["XMP-2"]


class TestConstructorPlumbing:
    def test_initial_cwnd_reaches_senders(self, two_host_net):
        conn = MptcpConnection(
            two_host_net, "A", "B", two_host_net.paths("A", "B"), scheme="xmp",
        )
        assert all(s.sender.cwnd == INITIAL_CWND for s in conn.subflows)

    def test_rto_min_reaches_estimators(self, two_host_net):
        conn = MptcpConnection(
            two_host_net, "A", "B", two_host_net.paths("A", "B"),
            scheme="xmp", rto_min=0.01,
        )
        assert all(s.sender.rtt.rto_min == 0.01 for s in conn.subflows)

    def test_added_subflow_inherits_settings(self, two_host_net):
        conn = MptcpConnection(
            two_host_net, "A", "B", two_host_net.paths("A", "B"),
            scheme="xmp", rto_min=0.01, sack=True,
        )
        subflow = conn.add_subflow(two_host_net.paths("A", "B")[0])
        assert subflow.sender.rtt.rto_min == 0.01
        assert subflow.sender.sack_enabled
        assert subflow.receiver.sack_enabled


class TestFactoryOutsideFatTree:
    def test_category_is_any(self):
        net = build_single_bottleneck(num_pairs=1)
        factory = TransferFactory(net, "xmp", subflow_count=1,
                                  rng=random.Random(0))
        assert factory.category("S0", "D0") == "any"

    def test_launch_and_record_on_bottleneck(self):
        net = build_single_bottleneck(num_pairs=1)
        factory = TransferFactory(net, "dctcp", subflow_count=1,
                                  rng=random.Random(0), label="MYLABEL")
        factory.launch("S0", "D0", 100_000)
        net.sim.run(until=0.5)
        assert factory.records
        assert factory.records[0].scheme == "MYLABEL"
        assert factory.records[0].category == "any"

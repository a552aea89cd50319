"""Tests for path enumeration and ECMP/distinct selectors."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.network import Network
from repro.net.routing import DistinctPathSelector, EcmpSelector, enumerate_paths


def diamond_net():
    """A -> {U, V} -> B : two equal-cost 2-hop paths."""
    net = Network()
    a = net.add_host("A")
    b = net.add_host("B")
    u = net.add_switch("U")
    v = net.add_switch("V")
    for mid in (u, v):
        net.connect(a, mid, 1e9, 1e-6)
        net.connect(mid, b, 1e9, 1e-6)
    return net


def wide_diamond_net(width=8):
    """A -> {M0 .. M<width-1>} -> B : ``width`` equal-cost 2-hop paths."""
    net = Network()
    a = net.add_host("A")
    b = net.add_host("B")
    for i in range(width):
        mid = net.add_switch(f"M{i}")
        net.connect(a, mid, 1e9, 1e-6)
        net.connect(mid, b, 1e9, 1e-6)
    return net


class TestEnumeration:
    def test_two_equal_cost_paths(self):
        net = diamond_net()
        paths = net.paths("A", "B")
        assert len(paths) == 2
        assert all(len(path) == 2 for path in paths)

    def test_paths_end_at_destination(self):
        net = diamond_net()
        for path in net.paths("A", "B"):
            assert path[-1].dst is net.host("B")
            assert path[0].src is net.host("A")

    def test_only_shortest_paths_returned(self):
        # Add a longer detour; it must not appear.
        net = diamond_net()
        w = net.add_switch("W")
        net.connect(net.switches["U"], w, 1e9, 1e-6)
        net.connect(w, net.host("B"), 1e9, 1e-6)
        paths = net.paths("A", "B")
        assert len(paths) == 2
        assert all(len(path) == 2 for path in paths)

    def test_no_path_returns_empty(self):
        net = Network()
        net.add_host("A")
        net.add_host("B")
        assert net.paths("A", "B") == []

    def test_self_path_is_empty_tuple(self):
        net = diamond_net()
        paths = enumerate_paths(net.adjacency, net.host("A"), net.host("A"))
        assert paths == [()]

    # The cache once keyed on (src, dst) alone, so whichever bound was
    # asked first decided the length of every later answer; these two
    # tests ask in both orders on one network.
    def test_max_paths_bounds_result(self):
        net = wide_diamond_net()
        assert len(net.paths("A", "B", max_paths=3)) == 3
        assert len(net.paths("A", "B", max_paths=64)) == 8

    def test_max_paths_bounds_a_cached_larger_result(self):
        net = wide_diamond_net()
        assert len(net.paths("A", "B", max_paths=64)) == 8
        assert len(net.paths("A", "B", max_paths=3)) == 3

    def test_paths_are_cached(self):
        net = diamond_net()
        assert net.paths("A", "B") is net.paths("A", "B")


class TestSelectors:
    def test_ecmp_picks_from_given_paths(self):
        net = diamond_net()
        paths = net.paths("A", "B")
        selector = EcmpSelector(random.Random(0))
        for _ in range(20):
            chosen = selector.select(paths, 0, 1)
            assert len(chosen) == 1
            assert chosen[0] in paths

    def test_ecmp_uses_both_paths_across_flows(self):
        net = diamond_net()
        paths = net.paths("A", "B")
        selector = EcmpSelector(random.Random(0))
        seen = {selector.select(paths, flow, 1)[0] for flow in range(50)}
        assert len(seen) == 2

    def test_ecmp_rejects_empty(self):
        with pytest.raises(ValueError):
            EcmpSelector(random.Random(0)).select([], 0, 1)

    def test_distinct_gives_different_paths(self):
        net = diamond_net()
        paths = net.paths("A", "B")
        selector = DistinctPathSelector(random.Random(0))
        chosen = selector.select(paths, 0, 2)
        assert chosen[0] != chosen[1]

    def test_distinct_wraps_when_paths_exhausted(self):
        net = diamond_net()
        paths = net.paths("A", "B")
        selector = DistinctPathSelector(random.Random(0))
        chosen = selector.select(paths, 0, 5)
        assert len(chosen) == 5
        assert set(chosen) == set(paths)

    def test_distinct_single_path_topology(self):
        selector = DistinctPathSelector(random.Random(0))
        fake_path = ("only",)
        chosen = selector.select([fake_path], 0, 3)
        assert chosen == [fake_path] * 3

    @given(n_paths=st.integers(1, 8), n_subflows=st.integers(1, 8), seed=st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_distinct_property_no_reuse_until_wrap(self, n_paths, n_subflows, seed):
        paths = [(f"p{i}",) for i in range(n_paths)]
        selector = DistinctPathSelector(random.Random(seed))
        chosen = selector.select(paths, 0, n_subflows)
        head = chosen[: min(n_paths, n_subflows)]
        assert len(set(head)) == len(head)  # distinct until wrap-around

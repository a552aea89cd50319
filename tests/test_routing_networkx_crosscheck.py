"""Cross-validate path enumeration against networkx.

``enumerate_paths`` is hand-rolled BFS+DFS; networkx's
``all_shortest_paths`` is an independent implementation.  Agreement on
the fat tree (counts and the path sets themselves) is strong evidence
the routing substrate is correct.
"""

import random

import networkx as nx
import pytest

from repro.topology.fattree import build_fattree
from repro.topology.torus import build_torus


def to_networkx(net) -> nx.DiGraph:
    graph = nx.DiGraph()
    for links in net.adjacency.values():
        for link in links:
            graph.add_edge(link.src.name, link.dst.name)
    return graph


def node_sequence(path, src_name):
    return tuple([src_name] + [link.dst.name for link in path])


class TestFatTreeAgainstNetworkx:
    @pytest.mark.parametrize("k", [4, 6])
    def test_shortest_path_sets_match(self, k):
        net = build_fattree(k=k)
        graph = to_networkx(net)
        rng = random.Random(k)
        for _ in range(8):
            src, dst = rng.sample(net.host_names, 2)
            ours = {
                node_sequence(path, src) for path in net.paths(src, dst)
            }
            theirs = {
                tuple(p) for p in nx.all_shortest_paths(graph, src, dst)
            }
            assert ours == theirs, (src, dst)

    def test_interpod_count_formula(self):
        net = build_fattree(k=4)
        graph = to_networkx(net)
        count = len(list(nx.all_shortest_paths(graph, "h_0_0_0", "h_2_0_0")))
        assert count == 4  # (k/2)^2
        assert len(net.paths("h_0_0_0", "h_2_0_0")) == count


class TestTorusAgainstNetworkx:
    def test_flow_paths_are_shortest(self):
        net = build_torus()
        graph = to_networkx(net)
        for i in range(1, 6):
            ours = {node_sequence(path, f"S{i}") for path in net.paths(f"S{i}", f"D{i}")}
            theirs = {
                tuple(p)
                for p in nx.all_shortest_paths(graph, f"S{i}", f"D{i}")
            }
            assert ours == theirs

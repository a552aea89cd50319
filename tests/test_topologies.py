"""Tests for the topology builders."""

import pytest

from repro.experiments.scene import route
from repro.net.queue import DropTailQueue, ThresholdECNQueue
from repro.topology.bottleneck import build_single_bottleneck
from repro.topology.fattree import build_fattree
from repro.topology.testbed import build_shifting_testbed
from repro.topology.torus import DEFAULT_CAPACITIES, build_torus


class TestBottleneck:
    def test_pair_paths_exist_and_cross_bottleneck(self):
        net = build_single_bottleneck(num_pairs=3)
        for i in range(3):
            path = net.flow_path(i)
            assert net.forward_bottleneck in path

    def test_bottleneck_is_marking_queue(self):
        net = build_single_bottleneck(marking_threshold=10)
        assert isinstance(net.forward_bottleneck.queue, ThresholdECNQueue)
        assert net.forward_bottleneck.queue.threshold == 10

    def test_droptail_mode(self):
        net = build_single_bottleneck(marking_threshold=None)
        assert type(net.forward_bottleneck.queue) is DropTailQueue

    def test_access_links_do_not_mark(self):
        net = build_single_bottleneck()
        for link in net.links_by_layer("access"):
            assert type(link.queue) is DropTailQueue

    def test_access_faster_than_bottleneck(self):
        net = build_single_bottleneck(bottleneck_rate_bps=1e9)
        for link in net.links_by_layer("access"):
            assert link.rate_bps > 1e9

    def test_propagation_rtt_matches_request(self):
        rtt = 300e-6
        net = build_single_bottleneck(rtt=rtt)
        path = net.flow_path(0)
        one_way = sum(link.delay for link in path)
        back = sum(link.delay for link in net.reverse_path(path))
        assert one_way + back == pytest.approx(rtt)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_single_bottleneck(num_pairs=0)
        with pytest.raises(ValueError):
            build_single_bottleneck(rtt=0)


def flow2_paths(net):
    """Fig. 4's multihomed Flow 2: one route over each bottleneck."""
    return [route(net, "S2", "D2", via) for via in ("A1->B1", "A2->B2")]


def torus_paths(net, i):
    """Fig. 7's Flow ``i``: one route across L_i, one across L_{i+1}."""
    j = i % 5 + 1
    return [route(net, f"S{i}", f"D{i}", via) for via in (f"A{i}->B{i}", f"A{j}->B{j}")]


def torus_bottleneck(net, i):
    return next(link for link in net.links if link.name == f"A{i}->B{i}")


class TestShiftingTestbed:
    def test_flow2_has_two_disjoint_paths(self):
        net = build_shifting_testbed()
        assert len(net.paths("S2", "D2")) == 2
        paths = flow2_paths(net)
        assert set(paths[0]).isdisjoint(set(paths[1]))

    def test_flow2_paths_cross_different_bottlenecks(self):
        net = build_shifting_testbed()
        p1, p2 = flow2_paths(net)
        names1 = {link.name for link in p1}
        names2 = {link.name for link in p2}
        assert "A1->B1" in names1
        assert "A2->B2" in names2
        assert "A2->B2" not in names1

    def test_route_without_a_crossing_is_an_error(self):
        net = build_shifting_testbed()
        with pytest.raises(ValueError, match="no path from S1 to D1 via A2->B2"):
            route(net, "S1", "D1", "A2->B2")

    def test_single_path_flows(self):
        net = build_shifting_testbed()
        assert len(net.paths("S1", "D1")) == 1
        assert len(net.paths("S3", "D3")) == 1

    def test_background_paths_use_their_bottleneck(self):
        net = build_shifting_testbed()
        assert any(l.name == "A1->B1" for l in route(net, "BG1", "BGD1", None))
        assert any(l.name == "A2->B2" for l in route(net, "BG2", "BGD2", None))

    def test_bottleneck_parameters(self):
        net = build_shifting_testbed(bottleneck_rate_bps=300e6, marking_threshold=15)
        bottlenecks = net.links_by_layer("bottleneck")
        assert len(bottlenecks) == 4  # two pairs, both directions
        for link in bottlenecks:
            assert link.rate_bps == 300e6
            assert link.queue.threshold == 15

    def test_access_links_run_at_one_gigabit(self):
        # Every host hangs off its switch at 1 Gbps, whatever the
        # bottleneck rate (the paper's testbed NICs).
        access = build_shifting_testbed(bottleneck_rate_bps=300e6).links_by_layer("access")
        assert len(access) == 24  # twelve attachments, both directions
        assert {link.rate_bps for link in access} == {1e9}


class TestTorus:
    def test_default_capacities(self):
        net = build_torus()
        rates = [torus_bottleneck(net, i).rate_bps for i in range(1, 6)]
        assert rates == list(DEFAULT_CAPACITIES)

    def test_flow_paths_cross_adjacent_bottlenecks(self):
        net = build_torus()
        for i in range(1, 6):
            first, second = torus_paths(net, i)
            assert torus_bottleneck(net, i) in first
            wrap = i % 5 + 1
            assert torus_bottleneck(net, wrap) in second
            assert torus_bottleneck(net, wrap) not in first

    def test_flow5_wraps_to_l1(self):
        net = build_torus()
        _, second = torus_paths(net, 5)
        assert torus_bottleneck(net, 1) in second

    def test_background_flows_cross_l3(self):
        net = build_torus(num_background=4)
        for b in range(1, 5):
            assert torus_bottleneck(net, 3) in route(net, f"BG{b}", f"BGD{b}", None)

    def test_rtt_of_each_path(self):
        rtt = 350e-6
        net = build_torus(rtt=rtt)
        for i in range(1, 6):
            for path in torus_paths(net, i):
                total = sum(l.delay for l in path) + sum(
                    l.delay for l in net.reverse_path(path)
                )
                assert total == pytest.approx(rtt)

    def test_access_links_run_at_ten_gigabits(self):
        # Faster than every bottleneck, so queueing happens only on L1..L5.
        access = build_torus(rtt=350e-6).links_by_layer("access")
        assert len(access) == 2 * (4 * 5 + 2 * 4)  # S/D to both bottlenecks, BG pairs
        assert {link.rate_bps for link in access} == {10e9}

    def test_needs_two_bottlenecks(self):
        with pytest.raises(ValueError):
            build_torus(capacities=[1e9])


class TestFatTree:
    def test_k4_counts(self):
        net = build_fattree(k=4)
        assert len(net.hosts) == 16
        assert len(net.switches) == 20  # 4 cores + 8 agg + 8 edge

    def test_k8_counts(self):
        net = build_fattree(k=8)
        assert len(net.hosts) == 128
        assert len(net.switches) == 80

    def test_interpod_path_count_is_half_k_squared(self):
        net = build_fattree(k=4)
        paths = net.paths("h_0_0_0", "h_1_0_0")
        assert len(paths) == 4  # (k/2)^2

    def test_interrack_path_count(self):
        net = build_fattree(k=4)
        paths = net.paths("h_0_0_0", "h_0_1_0")
        assert len(paths) == 2  # k/2 (one per aggregation switch)

    def test_innerrack_single_path(self):
        net = build_fattree(k=4)
        assert len(net.paths("h_0_0_0", "h_0_0_1")) == 1

    def test_categories(self):
        net = build_fattree(k=4)
        assert net.category("h_0_0_0", "h_1_0_0") == "inter-pod"
        assert net.category("h_0_0_0", "h_0_1_0") == "inter-rack"
        assert net.category("h_0_0_0", "h_0_0_1") == "inner-rack"

    def test_layer_link_counts_k4(self):
        net = build_fattree(k=4)
        assert len(net.links_by_layer("core")) == 16 * 2
        assert len(net.links_by_layer("aggregation")) == 16 * 2
        assert len(net.links_by_layer("rack")) == 16 * 2

    def test_interpod_rtt_within_paper_range(self):
        # "RTT with no queuing delay is between 105 us and 435 us."
        net = build_fattree(k=4)
        path = net.paths("h_0_0_0", "h_1_0_0")[0]
        rtt = sum(l.delay for l in path) + sum(
            l.delay for l in net.reverse_path(path)
        )
        assert 300e-6 < rtt < 435e-6

    def test_innerrack_rtt(self):
        net = build_fattree(k=4)
        path = net.paths("h_0_0_0", "h_0_0_1")[0]
        rtt = sum(l.delay for l in path) + sum(
            l.delay for l in net.reverse_path(path)
        )
        assert rtt == pytest.approx(80e-6)

    def test_marking_threshold_everywhere(self):
        net = build_fattree(k=4, marking_threshold=10)
        for link in net.links:
            assert link.queue.threshold == 10

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            build_fattree(k=3)

    def test_host_name_parsing(self):
        net = build_fattree(k=4)
        assert net.parse_host("h_2_1_0") == (2, 1, 0)
        assert "h_2_1_0" in net.host_names

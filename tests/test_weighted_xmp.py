"""Tests for weighted XMP (delta scaling, an extension of TraSh)."""

import pytest

from repro.mptcp.connection import MptcpConnection
from repro.core.trash import TraSh
from repro.topology.bottleneck import build_single_bottleneck


class TestWeightPlumbing:
    def test_default_weight_one(self):
        assert TraSh(beta=4.0).weight == 1.0

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            TraSh(beta=4.0, weight=0.0)
        with pytest.raises(ValueError):
            TraSh(beta=4.0, weight=-1.0)

    def test_delta_scales_with_weight(self):
        import math

        class StubSender:
            cwnd = 10.0
            srtt = 100e-6
            running = True
            completed = False

            @property
            def instant_rate(self):
                return self.cwnd / self.srtt

        unit = TraSh(beta=4.0, weight=1.0)
        heavy = TraSh(beta=4.0, weight=3.0)
        c1 = unit.make_controller()
        c2 = heavy.make_controller()
        c1.attach(StubSender())
        c2.attach(StubSender())
        assert heavy.delta(c2, 0.0) == pytest.approx(3.0 * unit.delta(c1, 0.0))

    def test_fallback_delta_is_weight(self):
        coupling = TraSh(beta=4.0, weight=2.5)
        controller = coupling.make_controller()
        # No sender attached yet -> no rate info -> weight itself.
        assert coupling.delta(controller, 0.0) == 2.5


class TestWeightedSharing:
    def weighted_run(self, weight):
        """A weight-`weight` flow vs a weight-1 flow on one bottleneck.

        ACK jitter larger than one packet serialization time (12 us at
        1 Gbps) decorrelates the two flows' queue-arrival phases;
        without it the deterministic simulator phase-locks into biased
        marking (the paper's global-synchronization observation).
        """
        net = build_single_bottleneck(num_pairs=2, marking_threshold=10)
        connections = []
        for index, w in enumerate((weight, 1.0)):
            conn = MptcpConnection(
                net, f"S{index}", f"D{index}", [net.flow_path(index)],
                scheme="xmp", weight=w, ack_jitter=30e-6,
            )
            connections.append(conn)
        for conn in connections:
            conn.start()
        # Let the allocation converge, then measure the steady window.
        net.sim.run(until=0.5)
        baseline = [c.delivered_bytes for c in connections]
        net.sim.run(until=1.0)
        heavy, unit = (
            c.delivered_bytes - base for c, base in zip(connections, baseline)
        )
        return heavy / unit

    def test_double_weight_doubles_share(self):
        assert self.weighted_run(2.0) == pytest.approx(2.0, rel=0.25)

    def test_triple_weight(self):
        assert self.weighted_run(3.0) == pytest.approx(3.0, rel=0.3)

    def test_unit_weight_is_fair(self):
        assert self.weighted_run(1.0) == pytest.approx(1.0, rel=0.15)

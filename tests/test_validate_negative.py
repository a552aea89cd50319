"""Negative tests: deliberately break an invariant, assert the checker fires.

Each test corrupts one mechanism in a toy harness — a queue counter, a
congestion window, the ECN contract, the BOS state machine — and asserts
the validator reports it with an actionable message.  These prove the
checker detects real defects rather than merely passing on healthy code.
"""

from __future__ import annotations

import pytest

from repro.core.bos import BosCC
from repro.mptcp.connection import MptcpConnection
from repro.net.network import Network
from repro.net.packet import make_data_packet
from repro.net.queue import DropTailQueue, ThresholdECNQueue
from repro.transport.cc import NORMAL
from repro.validate import Validator, validating

pytestmark = pytest.mark.invariants


def _queue_factory():
    return ThresholdECNQueue(100, 10)


def _bottleneck_net() -> Network:
    net = Network()
    a = net.add_host("A")
    b = net.add_host("B")
    s = net.add_switch("SW")
    net.connect(a, s, 1e9, 30e-6, queue_factory=_queue_factory)
    net.connect(s, b, 1e9, 30e-6, queue_factory=_queue_factory)
    return net


def _violations(validator: Validator, invariant: str):
    return [v for v in validator.violations if v.invariant == invariant]


class TestCorruptedQueueCounter:
    def test_enqueued_counter_corruption_detected(self):
        with validating(raise_on_violation=False) as validator:
            net = _bottleneck_net()
            conn = MptcpConnection(
                net, "A", "B", [net.paths("A", "B")[0]],
                scheme="tcp", size_bytes=50_000,
            )
            conn.start()
            net.sim.run(until=0.2)
            # Corrupt one queue's enqueued counter behind the queue's back.
            net.links[0].queue.stats.enqueued += 5
        found = _violations(validator, "queue-conservation")
        assert found, validator.report()
        assert any("counter corrupted" in v.message for v in found)
        assert any("conservation broken" in v.message for v in found)

    def test_dropped_counter_rollback_detected(self):
        queue = DropTailQueue(capacity=1)
        validator = Validator()
        watched = validator.watch_queue(queue, label="toy")
        pkt = make_data_packet(0, 0, 0, 0.0, (), False)
        assert watched.accept(pkt)
        assert not watched.accept(make_data_packet(0, 0, 1, 0.0, (), False))  # drop
        queue.stats.dropped = 0  # roll the counter back
        validator.sweep()
        found = _violations(validator, "queue-conservation")
        assert any("fell behind observed drops" in v.message for v in found)


class TestTamperedCwnd:
    def test_cwnd_overgrowth_detected(self):
        with validating(raise_on_violation=False) as validator:
            net = _bottleneck_net()
            conn = MptcpConnection(
                net, "A", "B", [net.paths("A", "B")[0]],
                scheme="xmp", size_bytes=None,  # long-running
            )
            conn.start()
            sender = conn.subflows[0].sender
            # Mid-run, grow the window outside any congestion-control hook
            # (the bug class: an experiment script "helping" a flow along).
            net.sim.schedule(
                0.020, lambda: setattr(sender, "cwnd", sender.cwnd + 50.0)
            )
            net.sim.run(until=0.060)
            conn.stop()
        found = _violations(validator, "cwnd-provenance")
        assert found, validator.report()
        assert any(
            "outside the congestion-control hooks" in v.message for v in found
        )

    def test_untampered_long_run_is_clean(self):
        # Control for the test above: same harness, no tampering.
        with validating(raise_on_violation=False) as validator:
            net = _bottleneck_net()
            conn = MptcpConnection(
                net, "A", "B", [net.paths("A", "B")[0]],
                scheme="xmp", size_bytes=None,
            )
            conn.start()
            net.sim.run(until=0.060)
            conn.stop()
        assert not validator.violations, validator.report()


class TestEcnContract:
    def test_ce_on_non_ect_packet_detected(self):
        queue = ThresholdECNQueue(capacity=10, threshold=5)
        validator = Validator()
        watched = validator.watch_queue(queue, label="toy")
        pkt = make_data_packet(0, 0, 0, 0.0, (), False)
        pkt.ce = True  # a marker that ignored the ECT bit
        watched.accept(pkt)
        found = _violations(validator, "ce-marking")
        assert any("non-ECT" in v.message for v in found)

    def test_unmarked_over_threshold_detected(self, monkeypatch):
        # Break the marking rule itself: _mark does nothing.
        monkeypatch.setattr(
            ThresholdECNQueue, "_mark", DropTailQueue._mark
        )
        queue = ThresholdECNQueue(capacity=10, threshold=0)
        validator = Validator()
        watched = validator.watch_queue(queue, label="toy")
        watched.accept(make_data_packet(0, 0, 0, 0.0, (), True))
        found = _violations(validator, "ce-marking")
        assert any("without a CE mark" in v.message for v in found)
        assert any("§2.1" in v.message for v in found)

    def test_over_admission_detected(self):
        queue = DropTailQueue(capacity=2)
        validator = Validator()
        watched = validator.watch_queue(queue, label="toy")
        queue.capacity = 1  # shrink under the resident packets
        watched.accept(make_data_packet(0, 0, 0, 0.0, (), False))
        queue.capacity = 0
        validator.sweep()
        found = _violations(validator, "queue-admission")
        assert found, validator.report()


class TestBrokenBosStateMachine:
    def test_double_cut_per_round_detected(self, monkeypatch):
        # Sabotage Fig. 2: the REDUCED state clears on every ACK instead
        # of waiting for cwr_seq to be acknowledged, so every ECE-carrying
        # ACK cuts — multiple cuts per RTT.
        def always_normal(self, ack):
            self.state = NORMAL

        monkeypatch.setattr(BosCC, "update_cwr_state", always_normal)
        with validating(raise_on_violation=False) as validator:
            net = _bottleneck_net()
            conn = MptcpConnection(
                net, "A", "B", [net.paths("A", "B")[0]],
                scheme="xmp", size_bytes=400_000,
            )
            conn.start()
            net.sim.run(until=0.3)
        found = _violations(validator, "bos-once-per-round")
        assert found, validator.report()
        assert any("at most one" in v.message for v in found)

    def test_reductions_counter_corruption_detected(self):
        with validating(raise_on_violation=False) as validator:
            net = _bottleneck_net()
            conn = MptcpConnection(
                net, "A", "B", [net.paths("A", "B")[0]],
                scheme="xmp", size_bytes=400_000,
            )
            conn.start()
            net.sim.run(until=0.3)
            cc = conn.subflows[0].sender.cc
            assert cc.reductions > 0, "scenario produced no reductions"
            cc.reductions += 1  # corrupt the public counter
        found = _violations(validator, "bos-once-per-round")
        assert any("observer saw" in v.message for v in found)


class TestFlowConservation:
    def test_delivered_count_corruption_detected(self):
        with validating(raise_on_violation=False) as validator:
            net = _bottleneck_net()
            conn = MptcpConnection(
                net, "A", "B", [net.paths("A", "B")[0]],
                scheme="dctcp", size_bytes=50_000,
            )
            conn.start()
            net.sim.run(until=0.2)
            conn.delivered_segments += 3  # double-counted delivery
        found = _violations(validator, "flow-conservation")
        assert found, validator.report()
        assert any("sum of" in v.message for v in found)

    def test_sim_event_counter_corruption_detected(self):
        with validating(raise_on_violation=False) as validator:
            net = _bottleneck_net()
            conn = MptcpConnection(
                net, "A", "B", [net.paths("A", "B")[0]],
                scheme="tcp", size_bytes=20_000,
            )
            conn.start()
            net.sim.run(until=0.1)
            net.sim._events_processed += 2  # corrupt the loop counter
        found = _violations(validator, "sim-event-counter")
        assert any("bypassed the loop" in v.message for v in found)

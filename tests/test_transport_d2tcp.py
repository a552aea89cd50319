"""Tests for the D2TCP extension (deadline-aware DCTCP)."""

import math

import pytest

from repro.transport.d2tcp import D_MAX, D_MIN, D2tcpCC
from repro.transport.tcp import FiniteSource


class StubSender:
    def __init__(self, cwnd=10.0, ssthresh=5.0, srtt=100e-6, total=1000):
        self.cwnd = cwnd
        self.ssthresh = ssthresh
        self.snd_una = 0
        self.snd_nxt = int(cwnd)
        self.in_recovery = False
        self.running = True
        self.completed = False
        self.srtt = srtt
        self.source = FiniteSource(total)

    @property
    def flight(self):
        return self.snd_nxt - self.snd_una

    @property
    def instant_rate(self):
        if self.srtt is None or self.srtt <= 0:
            return 0.0
        return self.cwnd / self.srtt


def attach(cc, **kwargs):
    sender = StubSender(**kwargs)
    cc.attach(sender)
    return sender


class TestImminence:
    def test_no_deadline_is_dctcp(self):
        cc = D2tcpCC(deadline=None)
        attach(cc)
        assert cc.imminence(0.0) == 1.0

    def test_tight_deadline_raises_d(self):
        # Needs 1000 segments at 1e5 seg/s = 10 ms; has 5 ms.
        cc = D2tcpCC(deadline=0.005)
        attach(cc, total=1000)
        assert cc.imminence(0.0) == pytest.approx(2.0)

    def test_loose_deadline_lowers_d(self):
        # Needs 10 ms; has 1 s: d clamps at the floor.
        cc = D2tcpCC(deadline=1.0)
        attach(cc, total=1000)
        assert cc.imminence(0.0) == D_MIN

    def test_missed_deadline_maximally_aggressive(self):
        cc = D2tcpCC(deadline=0.5)
        attach(cc)
        assert cc.imminence(1.0) == D_MAX

    def test_clamped_between_bounds(self):
        for deadline in (1e-6, 1e-3, 0.1, 10.0):
            cc = D2tcpCC(deadline=deadline)
            attach(cc)
            assert D_MIN <= cc.imminence(0.0) <= D_MAX

    def test_no_rate_estimate_is_aggressive(self):
        cc = D2tcpCC(deadline=0.1)
        attach(cc, srtt=None)
        assert cc.imminence(0.0) == D_MAX

    def test_exact_fit_is_one(self):
        # Needs exactly as long as it has.
        cc = D2tcpCC(deadline=0.01)
        attach(cc, total=1000)  # 1000/1e5 = 10 ms needed, 10 ms left
        assert cc.imminence(0.0) == pytest.approx(1.0)


class TestReduction:
    def reduction_for(self, deadline, now=0.0, alpha=0.5, total=1000):
        cc = D2tcpCC(deadline=deadline)
        cc.alpha = alpha
        sender = attach(cc, cwnd=100.0, total=total)
        sender.snd_nxt = 100
        cc.on_ack(1, 1, None, now, False)
        return 100.0 - sender.cwnd

    def test_neutral_matches_dctcp(self):
        # d = 1: cut = cwnd * alpha/2 = 25.
        assert self.reduction_for(deadline=None) == pytest.approx(25.0)

    def test_tight_deadline_cuts_less(self):
        # cwnd=100 at srtt=100us -> 1e6 seg/s -> needs 1 ms for 1000 segs;
        # only 0.8 ms left -> d = 1.25 -> smaller penalty than DCTCP's.
        tight = self.reduction_for(deadline=0.0008)
        neutral = self.reduction_for(deadline=None)
        assert tight < neutral

    def test_loose_deadline_cuts_more(self):
        loose = self.reduction_for(deadline=10.0)
        neutral = self.reduction_for(deadline=None)
        assert loose > neutral

    def test_penalty_formula(self):
        # d = 2 (late): penalty = alpha^2 = 0.25 -> cut = 12.5.
        cut = self.reduction_for(deadline=0.0001)
        assert cut == pytest.approx(100.0 * (0.5**2) / 2.0)


class TestEndToEnd:
    def test_tight_deadline_flow_outruns_loose_one(self, two_host_net):
        """Two D2TCP flows share one bottleneck; the tight-deadline flow
        should deliver more in the contested period."""
        from repro.mptcp.connection import MptcpConnection
        from repro.topology.bottleneck import build_single_bottleneck
        from repro.transport.cc import Coupling

        net = build_single_bottleneck(num_pairs=2, marking_threshold=10)
        size = 12_000_000
        tight = MptcpConnection(
            net, "S0", "D0", [net.flow_path(0)],
            scheme=Coupling(lambda: D2tcpCC(deadline=0.08)), size_bytes=size,
        )
        loose = MptcpConnection(
            net, "S1", "D1", [net.flow_path(1)],
            scheme=Coupling(lambda: D2tcpCC(deadline=5.0)), size_bytes=size,
        )
        tight.start()
        loose.start()
        net.sim.run(until=0.08)
        assert tight.delivered_bytes > 1.2 * loose.delivered_bytes

"""Unit tests for RenoCC and DctcpCC window laws (driven via a stub sender)."""

import math

import pytest

from repro.transport.cc import MIN_CWND, NORMAL, REDUCED, RenoCC
from repro.transport.dctcp import DEFAULT_GAIN, DctcpCC


class StubSender:
    """Just the fields a congestion controller touches."""

    def __init__(self, cwnd=10.0, ssthresh=math.inf):
        self.cwnd = cwnd
        self.ssthresh = ssthresh
        self.snd_una = 0
        self.snd_nxt = int(cwnd)
        self.in_recovery = False
        self.running = True
        self.completed = False
        self.srtt = 100e-6

    @property
    def flight(self):
        return self.snd_nxt - self.snd_una

    @property
    def instant_rate(self):
        return self.cwnd / self.srtt if self.srtt else 0.0


def attach(cc, **kwargs):
    sender = StubSender(**kwargs)
    cc.attach(sender)
    return sender


def clean_ack(cc, newly=1, round_ended=False):
    cc.sender.snd_una += newly
    cc.on_ack(newly, 0, 100e-6, 0.0, round_ended)


class TestRenoBasics:
    def test_slow_start_grows_per_segment(self):
        cc = RenoCC()
        sender = attach(cc)
        clean_ack(cc, newly=3)
        assert sender.cwnd == 13.0

    def test_congestion_avoidance_grows_one_per_window(self):
        cc = RenoCC()
        sender = attach(cc, cwnd=10.0, ssthresh=5.0)
        for _ in range(10):
            clean_ack(cc, newly=1)
        assert sender.cwnd == pytest.approx(11.0, rel=0.01)

    def test_loss_event_halves(self):
        cc = RenoCC()
        sender = attach(cc, cwnd=20.0)
        sender.snd_nxt = 20
        cc.on_loss_event(0.0)
        assert sender.ssthresh == 10.0
        assert sender.cwnd == 10.0

    def test_loss_floor_at_min_cwnd(self):
        cc = RenoCC()
        sender = attach(cc, cwnd=2.0)
        sender.snd_nxt = 2
        cc.on_loss_event(0.0)
        assert sender.cwnd == MIN_CWND

    def test_timeout_collapses_to_one(self):
        cc = RenoCC()
        sender = attach(cc, cwnd=20.0)
        cc.on_timeout(0.0)
        assert sender.cwnd == 1.0

    def test_no_growth_during_recovery(self):
        cc = RenoCC()
        sender = attach(cc, cwnd=10.0, ssthresh=5.0)
        sender.in_recovery = True
        clean_ack(cc, newly=1)
        assert sender.cwnd == 10.0

    def test_attach_twice_rejected(self):
        cc = RenoCC()
        attach(cc)
        with pytest.raises(RuntimeError):
            cc.attach(StubSender())


class TestRenoEcn:
    def test_ignores_ece_when_not_ecn_capable(self):
        cc = RenoCC(ecn=False)
        sender = attach(cc, cwnd=10.0)
        cc.on_ack(1, 1, None, 0.0, False)
        assert sender.cwnd >= 10.0

    def test_halves_on_ece(self):
        cc = RenoCC(ecn=True)
        sender = attach(cc, cwnd=10.0, ssthresh=5.0)
        cc.on_ack(1, 1, None, 0.0, False)
        assert sender.cwnd == 5.0
        assert cc.state == REDUCED

    def test_only_once_per_window(self):
        cc = RenoCC(ecn=True)
        sender = attach(cc, cwnd=16.0, ssthresh=5.0)
        sender.snd_nxt = 16
        cc.on_ack(1, 1, None, 0.0, False)
        cc.on_ack(1, 1, None, 0.0, False)
        # Halved once (16 -> 8), not twice; the second ACK may still add
        # its ordinary CA growth.
        assert 8.0 <= sender.cwnd < 8.5

    def test_state_returns_to_normal_after_cwr_round(self):
        cc = RenoCC(ecn=True)
        sender = attach(cc, cwnd=10.0, ssthresh=5.0)
        sender.snd_nxt = 10
        cc.on_ack(1, 1, None, 0.0, False)
        assert cc.state == REDUCED
        sender.snd_una = 10  # reached cwr_seq
        cc.on_ack(1, 0, None, 0.0, False)
        assert cc.state == NORMAL


class TestDctcp:
    def test_alpha_starts_at_one(self):
        assert DctcpCC().alpha == 1.0

    def test_first_mark_halves(self):
        cc = DctcpCC()
        sender = attach(cc, cwnd=20.0, ssthresh=5.0)
        sender.snd_nxt = 20
        cc.on_ack(1, 1, None, 0.0, False)
        assert sender.cwnd == 10.0  # alpha=1 -> cut by half

    def test_alpha_decays_without_marks(self):
        cc = DctcpCC()
        attach(cc, cwnd=10.0, ssthresh=5.0)
        for _ in range(10):
            clean_ack(cc, newly=10, round_ended=True)
        assert cc.alpha == pytest.approx((1 - DEFAULT_GAIN) ** 10)

    def test_alpha_converges_to_marked_fraction(self):
        cc = DctcpCC()
        sender = attach(cc, cwnd=10.0, ssthresh=5.0)
        for _ in range(80):
            # Half the segments marked each window; keep state NORMAL by
            # completing the reduction round immediately.
            sender.snd_una = sender.snd_nxt
            cc.on_ack(5, 0, None, 0.0, False)
            cc.on_ack(5, 5, None, 0.0, True)
        assert cc.alpha == pytest.approx(0.5, abs=0.1)

    def test_small_alpha_small_cut(self):
        cc = DctcpCC()
        cc.alpha = 0.1
        sender = attach(cc, cwnd=100.0, ssthresh=5.0)
        sender.snd_nxt = 100
        cc.on_ack(1, 1, None, 0.0, False)
        assert sender.cwnd == pytest.approx(95.0)

    def test_cut_at_most_once_per_window(self):
        cc = DctcpCC()
        cc.alpha = 0.5
        sender = attach(cc, cwnd=16.0, ssthresh=5.0)
        sender.snd_nxt = 16
        cc.on_ack(1, 1, None, 0.0, False)
        cc.on_ack(1, 1, None, 0.0, False)
        assert sender.cwnd == 12.0  # one 25% cut

    def test_floor_at_min_cwnd(self):
        cc = DctcpCC()
        sender = attach(cc, cwnd=2.0, ssthresh=1.0)
        sender.snd_nxt = 2
        cc.on_ack(1, 1, None, 0.0, False)
        assert sender.cwnd == MIN_CWND

    def test_timeout_resets_window_accounting(self):
        cc = DctcpCC()
        sender = attach(cc, cwnd=10.0)
        cc.on_ack(5, 2, None, 0.0, False)
        cc.on_timeout(0.0)
        assert cc._acked_window == 0
        assert cc._marked_window == 0
        assert sender.cwnd == 1.0

    def test_slow_start_exits_on_first_mark(self):
        cc = DctcpCC()
        sender = attach(cc, cwnd=8.0)  # ssthresh inf: slow start
        sender.snd_nxt = 8
        cc.on_ack(1, 1, None, 0.0, False)
        assert sender.ssthresh < math.inf
        # Growth now linear, not exponential.
        before = sender.cwnd
        sender.snd_una = sender.snd_nxt  # complete reduction round
        cc.on_ack(1, 0, None, 0.0, False)
        assert sender.cwnd - before < 1.0

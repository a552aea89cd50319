"""Unit tests for the BOS window law (paper Algorithm 1)."""

import math
from types import SimpleNamespace

import pytest

from repro.core.bos import BosCC
from repro.transport.cc import MIN_CWND, NORMAL, REDUCED


class StubSender:
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


class TestSlowStart:
    def test_grows_one_per_clean_ack(self):
        cc = BosCC(beta=4)
        sender = attach(cc)
        cc.on_ack(2, 0, None, 0.0, False)
        assert sender.cwnd == 11.0  # +1 per ACK, not per segment

    def test_first_echo_ends_slow_start_without_cut(self):
        cc = BosCC(beta=4)
        sender = attach(cc, cwnd=10.0)  # ssthresh inf
        cc.on_ack(1, 1, None, 0.0, False)
        # cwnd <= ssthresh: the reduction body skips the cut but pins
        # ssthresh = cwnd - 1, which is the slow-start exit.
        assert sender.cwnd == 10.0
        assert sender.ssthresh == 9.0
        assert cc.state == REDUCED

    def test_no_growth_while_reduced(self):
        cc = BosCC(beta=4)
        sender = attach(cc, cwnd=10.0)
        cc.on_ack(1, 1, None, 0.0, False)
        cc.on_ack(1, 0, None, 0.0, False)  # still below cwr_seq
        assert sender.cwnd == 10.0


class TestReduction:
    def test_cut_by_one_over_beta(self):
        cc = BosCC(beta=4)
        sender = attach(cc, cwnd=20.0, ssthresh=5.0)
        cc.on_ack(1, 1, None, 0.0, False)
        assert sender.cwnd == 15.0  # 20 - 20/4
        assert sender.ssthresh == 14.0

    def test_cut_at_least_one_packet(self):
        cc = BosCC(beta=8)
        sender = attach(cc, cwnd=6.0, ssthresh=3.0)
        cc.on_ack(1, 1, None, 0.0, False)
        assert sender.cwnd == 5.0  # max(6/8, 1) = 1

    def test_floor_at_two_packets(self):
        cc = BosCC(beta=4)
        sender = attach(cc, cwnd=2.5, ssthresh=1.0)
        cc.on_ack(1, 1, None, 0.0, False)
        assert sender.cwnd == MIN_CWND

    def test_once_per_round(self):
        cc = BosCC(beta=4)
        sender = attach(cc, cwnd=16.0, ssthresh=5.0)
        sender.snd_nxt = 16
        cc.on_ack(1, 1, None, 0.0, False)
        cc.on_ack(1, 1, None, 0.0, False)
        cc.on_ack(1, 3, None, 0.0, False)
        assert sender.cwnd == 12.0  # exactly one 1/4 cut
        assert cc.reductions == 1

    def test_new_round_allows_new_cut(self):
        cc = BosCC(beta=4)
        sender = attach(cc, cwnd=16.0, ssthresh=5.0)
        sender.snd_nxt = 16
        cc.on_ack(1, 1, None, 0.0, False)
        sender.snd_una = 16  # cwr round fully acknowledged
        cc.on_ack(1, 1, None, 0.0, False)
        assert cc.reductions == 2

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            BosCC(beta=1.5)


class TestCongestionAvoidance:
    def test_grows_delta_per_round(self):
        cc = BosCC(beta=4)
        sender = attach(cc, cwnd=10.0, ssthresh=5.0)
        cc.on_ack(1, 0, None, 0.0, True)  # round end, delta = 1
        assert sender.cwnd == 11.0

    def test_no_growth_mid_round(self):
        cc = BosCC(beta=4)
        sender = attach(cc, cwnd=10.0, ssthresh=5.0)
        cc.on_ack(1, 0, None, 0.0, False)
        assert sender.cwnd == 10.0

    def test_fractional_delta_accumulates(self):
        cc = BosCC(beta=4, coupling=SimpleNamespace(increase=lambda sender: 0.4))
        sender = attach(cc, cwnd=10.0, ssthresh=5.0)
        for _ in range(5):
            cc.on_ack(1, 0, None, 0.0, True)
        # 5 rounds x 0.4 = 2.0 whole packets.
        assert sender.cwnd == 12.0
        assert cc.adder == pytest.approx(0.0)

    def test_delta_provider_called_per_round(self):
        calls = []

        def increase(sender):
            calls.append(sender)
            return 1.0

        cc = BosCC(beta=4, coupling=SimpleNamespace(increase=increase))
        sender = attach(cc, cwnd=10.0, ssthresh=5.0)
        cc.on_ack(1, 0, None, 1.0, True)
        cc.on_ack(1, 0, None, 2.0, False)
        cc.on_ack(1, 0, None, 3.0, True)
        assert calls == [sender, sender]

    def test_delta_is_one_while_the_coupling_has_none(self):
        cc = BosCC(beta=4, coupling=SimpleNamespace(increase=lambda sender: None))
        cc.delta = 0.25
        sender = attach(cc, cwnd=10.0, ssthresh=5.0)
        cc.on_ack(1, 0, None, 0.0, True)
        assert cc.delta == 1.0
        assert sender.cwnd == 11.0

    def test_timeout_clears_adder(self):
        cc = BosCC(beta=4, coupling=SimpleNamespace(increase=lambda sender: 0.7))
        sender = attach(cc, cwnd=10.0, ssthresh=5.0)
        cc.on_ack(1, 0, None, 0.0, True)
        assert cc.adder > 0
        cc.on_timeout(0.0)
        assert cc.adder == 0.0
        assert sender.cwnd == 1.0


class TestEquilibrium:
    def test_matches_eq3_fixed_point(self):
        """Drive BOS with marks at exactly the Eq. 3 probability and check
        the window oscillates around the analytic equilibrium."""
        from repro.core.utility import equilibrium_window

        beta, delta = 4.0, 1.0
        p = 0.2
        target = equilibrium_window(p, delta, beta)
        cc = BosCC(beta=beta)
        sender = attach(cc, cwnd=target, ssthresh=2.0)
        # One marked round per 1/p rounds; windows should stay near target.
        windows = []
        rounds_per_mark = int(1 / p)
        for i in range(200):
            sender.snd_una = sender.snd_nxt
            sender.snd_nxt += int(sender.cwnd)
            ece = 1 if i % rounds_per_mark == 0 else 0
            cc.on_ack(int(sender.cwnd), ece, None, float(i), True)
            windows.append(sender.cwnd)
        average = sum(windows[50:]) / len(windows[50:])
        assert average == pytest.approx(target, rel=0.35)

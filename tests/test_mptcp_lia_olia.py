"""Unit tests for the LIA and OLIA couplings."""

import math
from types import SimpleNamespace

import pytest

from repro.mptcp.coupling import create_coupling
from repro.mptcp.lia import linked_alpha
from repro.mptcp.olia import OliaCC, OliaCoupling
from repro.transport.receiver import EchoMode


class StubSender:
    def __init__(self, cwnd, srtt, running=True):
        self.cwnd = cwnd
        self.rtt = SimpleNamespace(srtt=srtt)
        self.running = running
        self.completed = False
        self.snd_una = 0
        self.snd_nxt = int(cwnd)
        self.ssthresh = 1.0  # congestion avoidance
        self.in_recovery = False

    @property
    def flight(self):
        return self.snd_nxt - self.snd_una

    @property
    def srtt(self):
        return self.rtt.srtt

    @srtt.setter
    def srtt(self, value):
        self.rtt.srtt = value

    @property
    def instant_rate(self):
        if self.srtt is None or self.srtt <= 0:
            return 0.0
        return self.cwnd / self.srtt


def lia_pair(w1=10.0, w2=10.0, rtt1=100e-6, rtt2=100e-6):
    coupling = create_coupling("lia")
    c1, c2 = coupling.make_controller(), coupling.make_controller()
    c1.attach(StubSender(w1, rtt1))
    c2.attach(StubSender(w2, rtt2))
    return coupling, c1, c2


def alpha(coupling):
    """RFC 6356's alpha over the coupling's flow reductions; 0 without them."""
    flow = coupling.reduce()
    if flow is None:
        return 0.0
    peak, rate_sum, total = flow
    return linked_alpha(total, peak, rate_sum)


class TestLiaAlpha:
    def test_symmetric_two_paths_alpha_is_one(self):
        # Equal windows and RTTs: alpha = 2w * (w/r^2) / (2w/r)^2 = 1/2...
        coupling, _, _ = lia_pair()
        w, r = 10.0, 100e-6
        expected = (2 * w) * (w / r**2) / (2 * w / r) ** 2
        assert alpha(coupling) == pytest.approx(expected)
        assert alpha(coupling) == pytest.approx(0.5)

    def test_alpha_zero_without_rtt(self):
        coupling, c1, _ = lia_pair()
        c1.sender.srtt = None
        assert alpha(coupling) == 0.0

    def test_total_cwnd_sums_active(self):
        coupling, c1, c2 = lia_pair(w1=4.0, w2=6.0)
        assert coupling.reduce()[2] == 10.0
        c2.sender.completed = True
        assert coupling.reduce()[2] == 4.0

    def test_increase_capped_by_uncoupled_tcp(self):
        # LIA is never more aggressive per path than plain TCP.
        _, c1, c2 = lia_pair(w1=2.0, w2=50.0)
        assert c1.increase_per_segment(1) <= 1.0 / 2.0
        assert c2.increase_per_segment(1) <= 1.0 / 50.0

    def test_total_increase_less_than_single_tcp(self):
        # Coupling: aggregate aggressiveness ~ one TCP, not N TCPs.
        coupling, c1, c2 = lia_pair()
        total = c1.increase_per_segment(1) * 10 + c2.increase_per_segment(1) * 10
        # One TCP with cwnd 20 would grow ~1 per RTT; two uncoupled TCPs ~2.
        assert total <= 1.01

    def test_fallback_to_uncoupled_when_no_rtt(self):
        coupling, c1, _ = lia_pair()
        for controller in coupling.controllers:
            controller.sender.srtt = None
        assert c1.increase_per_segment(1) == pytest.approx(1.0 / 10.0)

    def test_lia_prefers_lower_rtt_path(self):
        # alpha weights by w/rtt^2: the short path dominates the numerator.
        coupling, c1, c2 = lia_pair(rtt1=50e-6, rtt2=500e-6)
        assert alpha(coupling) > 0

    def test_not_ecn_capable(self):
        assert create_coupling("lia").make_controller().ecn_capable is False


def olia_set(*windows_rtts):
    coupling = OliaCoupling()
    controllers = []
    for w, r in windows_rtts:
        c = coupling.make_controller()
        c.attach(StubSender(w, r))
        c.sender.cc = c  # what TcpSender's constructor establishes
        controllers.append(c)
    return coupling, controllers


class TestOliaAlphas:
    def test_single_path_alpha_zero(self):
        coupling, (c,) = olia_set((10.0, 100e-6))
        assert coupling.alphas()[c] == 0.0

    def test_alphas_sum_to_zero_when_shifting(self):
        coupling, (c1, c2) = olia_set((10.0, 100e-6), (4.0, 100e-6))
        # Make the small-window path the best (large loss interval).
        c1._l2 = 10.0
        c2._l2 = 1000.0
        alphas = coupling.alphas()
        assert sum(alphas.values()) == pytest.approx(0.0)
        assert alphas[c2] > 0  # best path with small window gains
        assert alphas[c1] < 0  # max-window non-best path loses

    def test_best_equals_largest_no_transfer(self):
        coupling, (c1, c2) = olia_set((10.0, 100e-6), (4.0, 100e-6))
        c1._l2 = 1000.0  # best AND largest-window
        c2._l2 = 1.0
        alphas = coupling.alphas()
        assert all(a == 0.0 for a in alphas.values())

    def test_loss_interval_tracking(self):
        c = OliaCC(OliaCoupling())
        c.attach(StubSender(10.0, 100e-6))
        c.on_ack(5, 0, None, 0.0, False)
        assert c._l2 == 5.0
        c.on_loss_event(0.0)
        assert c._l1 == 5.0
        assert c._l2 == 0.0

    def test_increase_nonnegative_and_capped(self):
        coupling, (c1, c2) = olia_set((10.0, 100e-6), (4.0, 100e-6))
        c1._l2 = 10.0
        c2._l2 = 1000.0
        for c in (c1, c2):
            inc = c.increase_per_segment(1)
            assert 0.0 <= inc <= 1.0 / c.sender.cwnd

    def test_timeout_rotates_loss_interval(self):
        c = OliaCC(OliaCoupling())
        c.attach(StubSender(10.0, 100e-6))
        c.on_ack(7, 0, None, 0.0, False)
        c.on_timeout(0.0)
        assert c._l1 == 7.0

    def test_not_ecn_capable(self):
        assert OliaCC(OliaCoupling()).ecn_capable is False


class TestCouplingRegistry:
    def test_known_schemes(self):
        from repro.mptcp.coupling import SCHEMES, create_coupling

        for scheme in SCHEMES:
            coupling = create_coupling(scheme)
            controller = coupling.make_controller()
            assert controller is not None

    def test_unknown_scheme_rejected(self):
        from repro.mptcp.coupling import create_coupling

        with pytest.raises(ValueError):
            create_coupling("bbr")

    def test_xmp_coupling_carries_beta(self):
        from repro.mptcp.coupling import create_coupling

        coupling = create_coupling("xmp", beta=6.0)
        controller = coupling.make_controller()
        assert controller.beta == 6.0

    def test_scheme_echo_modes(self):
        from repro.mptcp.coupling import create_coupling

        assert create_coupling("xmp").make_controller().echo_mode is EchoMode.XMP
        assert create_coupling("dctcp").make_controller().echo_mode is EchoMode.DCTCP
        assert create_coupling("tcp").make_controller().echo_mode is EchoMode.CLASSIC

    def test_ecn_capability_by_scheme(self):
        from repro.mptcp.coupling import create_coupling

        assert create_coupling("xmp").make_controller().ecn_capable
        assert create_coupling("dctcp").make_controller().ecn_capable
        assert not create_coupling("lia").make_controller().ecn_capable
        assert not create_coupling("tcp").make_controller().ecn_capable
        assert create_coupling("reno-ecn").make_controller().ecn_capable

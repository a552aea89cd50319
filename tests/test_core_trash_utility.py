"""Tests for TraSh coupling and the paper's model equations (Eqs. 1-9)."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import utility
from repro.core.bos import BosCC
from repro.mptcp.coupling import create_coupling


class StubSender:
    def __init__(self, cwnd, srtt, running=True):
        self.cwnd = cwnd
        self.srtt = srtt
        self.rtt = SimpleNamespace(srtt=srtt)
        self.running = running
        self.completed = False
        self.snd_una = 0
        self.snd_nxt = 0
        self.ssthresh = math.inf
        self.in_recovery = False

    @property
    def flight(self):
        return 0

    @property
    def instant_rate(self):
        if self.srtt is None or self.srtt <= 0:
            return 0.0
        return self.cwnd / self.srtt


def coupled(windows_and_rtts):
    trash = create_coupling("xmp", beta=4)
    controllers = []
    for cwnd, srtt in windows_and_rtts:
        controller = trash.make_controller()
        controller.attach(StubSender(cwnd, srtt))
        controllers.append(controller)
    return trash, controllers


def delta(trash, controller):
    """The controller's delta this round: the coupling's, else BOS's 1.0."""
    coupled = trash.increase(controller.sender)
    return 1.0 if coupled is None else coupled


class TestTraShDelta:
    def test_single_subflow_delta_is_one(self):
        trash, (c,) = coupled([(10.0, 100e-6)])
        assert delta(trash, c) == pytest.approx(1.0)

    def test_symmetric_subflows_get_half(self):
        trash, (c1, c2) = coupled([(10.0, 100e-6), (10.0, 100e-6)])
        assert delta(trash, c1) == pytest.approx(0.5)
        assert delta(trash, c2) == pytest.approx(0.5)

    def test_deltas_sum_to_one_for_equal_rtts(self):
        trash, controllers = coupled(
            [(5.0, 100e-6), (20.0, 100e-6), (10.0, 100e-6)]
        )
        total = sum(delta(trash, c) for c in controllers)
        assert total == pytest.approx(1.0)

    def test_smaller_window_smaller_delta(self):
        trash, (small, big) = coupled([(5.0, 100e-6), (20.0, 100e-6)])
        assert delta(trash, small) < delta(trash, big)

    def test_matches_eq9(self):
        trash, (c1, c2) = coupled([(8.0, 200e-6), (24.0, 100e-6)])
        x1, x2 = 8.0 / 200e-6, 24.0 / 100e-6
        expected = utility.trash_step([x1, x2], [200e-6, 100e-6])[0]
        assert delta(trash, c1) == pytest.approx(expected)

    def test_falls_back_to_one_without_rtt(self):
        trash, (c,) = coupled([(10.0, None)])
        assert trash.increase(c.sender) is None
        assert delta(trash, c) == 1.0

    def test_completed_subflow_excluded(self):
        trash, (c1, c2) = coupled([(10.0, 100e-6), (10.0, 100e-6)])
        c2.sender.completed = True
        assert delta(trash, c1) == pytest.approx(1.0)

    def test_min_rtt_selected(self):
        trash, _ = coupled([(10.0, 300e-6), (10.0, 100e-6)])
        assert trash.reduce() == (10.0 / 300e-6 + 10.0 / 100e-6, 100e-6)

    def test_make_controller_returns_coupled_bos(self):
        trash = create_coupling("xmp", beta=5)
        controller = trash.make_controller()
        assert isinstance(controller, BosCC)
        assert controller.beta == 5
        assert controller.coupling is trash


class TestCongestionEqualityPrinciple:
    """Proposition 1: delta rises exactly on under-congested paths."""

    def test_proposition1(self):
        # Path 1 lightly congested (low p), path 2 heavily congested.
        beta = 4.0
        rtts = [100e-6, 100e-6]
        deltas = [1.0, 1.0]
        rates = [
            utility.equilibrium_window(0.05, deltas[0], beta) / rtts[0],
            utility.equilibrium_window(0.4, deltas[1], beta) / rtts[1],
        ]
        new_deltas = utility.trash_step(rates, rtts)
        # The less congested path gets more aggressive, the more congested
        # one backs off.
        assert new_deltas[0] > new_deltas[1]

    def test_fixed_point_stability(self):
        # At equal congestion with equal RTTs, the update is stationary.
        rates = [50.0, 50.0]
        rtts = [100e-6, 100e-6]
        deltas = utility.trash_step(rates, rtts)
        assert deltas == pytest.approx([0.5, 0.5])
        # Applying the equilibrium rates derived from those deltas again
        # reproduces them (a fixed point).
        again = utility.trash_step(rates, rtts)
        assert again == pytest.approx(deltas)

    @given(
        rates=st.lists(st.floats(1.0, 1e6), min_size=2, max_size=6),
        rtt_us=st.lists(st.floats(50, 5000), min_size=2, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_deltas_scale_invariant_and_bounded(self, rates, rtt_us):
        n = min(len(rates), len(rtt_us))
        rates, rtts = rates[:n], [u * 1e-6 for u in rtt_us[:n]]
        deltas = utility.trash_step(rates, rtts)
        assert all(d >= 0 for d in deltas)
        # Scaling all rates by a constant leaves deltas unchanged.
        scaled = utility.trash_step([r * 7 for r in rates], rtts)
        for a, b in zip(deltas, scaled):
            assert a == pytest.approx(b)

    @given(rates=st.lists(st.floats(1.0, 1e6), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_equal_rtt_deltas_sum_to_one(self, rates):
        rtts = [100e-6] * len(rates)
        deltas = utility.trash_step(rates, rtts)
        assert sum(deltas) == pytest.approx(1.0)


class TestEquation1:
    def test_paper_example_beta4(self):
        # §2.1: BDP 33 packets, beta=4 -> K >= 11; the paper picks K=10
        # for BDP ~ 30 (1 Gbps, RTT < 400 us, MTU 1500).
        assert utility.min_marking_threshold(30, 4) == 10.0

    def test_beta2_needs_full_bdp(self):
        assert utility.min_marking_threshold(19, 2) == 19.0

    def test_larger_beta_smaller_k(self):
        ks = [utility.min_marking_threshold(33, beta) for beta in (2, 3, 4, 5, 6)]
        assert ks == sorted(ks, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            utility.min_marking_threshold(30, 1.5)
        with pytest.raises(ValueError):
            utility.min_marking_threshold(-1, 4)


class TestEquation3:
    def test_probability_window_roundtrip(self):
        for p in (0.01, 0.1, 0.5, 0.9):
            w = utility.equilibrium_window(p, 1.0, 4.0)
            assert utility.equilibrium_marking_probability(w, 1.0, 4.0) == pytest.approx(p)

    def test_larger_window_lower_probability(self):
        p1 = utility.equilibrium_marking_probability(10, 1.0, 4.0)
        p2 = utility.equilibrium_marking_probability(100, 1.0, 4.0)
        assert p2 < p1

    @given(
        w=st.floats(0.0, 1e4),
        delta=st.floats(0.01, 10),
        beta=st.floats(2, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_probability_in_unit_interval(self, w, delta, beta):
        p = utility.equilibrium_marking_probability(w, delta, beta)
        assert 0.0 < p <= 1.0


class TestUtilityFunctions:
    def test_eq4_increasing(self):
        values = [utility.bos_utility(x, 1e-4, 4.0) for x in (1, 10, 100, 1000)]
        assert values == sorted(values)

    def test_eq4_strictly_concave(self):
        # Second differences negative.
        xs = [10.0 * i for i in range(1, 30)]
        us = [utility.bos_utility(x, 1e-4, 4.0) for x in xs]
        diffs = [b - a for a, b in zip(us, us[1:])]
        assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))

    @given(x=st.floats(0.0, 1e9), rtt=st.floats(1e-6, 1.0), beta=st.floats(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_eq4_nonnegative(self, x, rtt, beta):
        assert utility.bos_utility(x, rtt, beta) >= 0.0

    def test_eq7_is_derivative_of_eq6(self):
        beta, rtt = 4.0, 1e-4
        y = 1e5
        h = 1.0
        numeric = (
            utility.xmp_utility(y + h, rtt, beta) - utility.xmp_utility(y - h, rtt, beta)
        ) / (2 * h)
        analytic = utility.xmp_expected_congestion(y, rtt, beta)
        assert numeric == pytest.approx(analytic, rel=1e-4)

    def test_eq7_interpretation_as_congestion(self):
        # At zero rate the expected congestion is 1, decaying toward 0.
        assert utility.xmp_expected_congestion(0.0, 1e-4, 4.0) == 1.0
        assert utility.xmp_expected_congestion(1e9, 1e-4, 4.0) < 1e-3

    def test_eq8_matches_eq3_shape(self):
        # Eq. 8 is Eq. 3 with x = w/T substituted.
        w, rtt, delta, beta = 20.0, 1e-4, 1.0, 4.0
        assert utility.subflow_equilibrium_probability(
            w / rtt, rtt, delta, beta
        ) == pytest.approx(utility.equilibrium_marking_probability(w, delta, beta))

    def test_validation(self):
        with pytest.raises(ValueError):
            utility.equilibrium_window(0.0, 1.0, 4.0)
        with pytest.raises(ValueError):
            utility.bos_utility(-1.0, 1e-4, 4.0)
        with pytest.raises(ValueError):
            utility.trash_step([0.0], [1e-4])
        with pytest.raises(ValueError):
            utility.trash_step([1.0], [1.0, 2.0])

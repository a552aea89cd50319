"""Tests for the closed-form sawtooth analysis, incl. simulator agreement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import predict_sawtooth
from repro.core.utility import min_marking_threshold
from repro.metrics.collector import QueueMonitor
from repro.mptcp.connection import MptcpConnection
from repro.sim.units import bandwidth_delay_product_packets
from repro.topology.bottleneck import build_single_bottleneck


class TestClosedForm:
    def test_eq1_bound_gives_full_utilization(self):
        # K exactly at BDP/(beta-1): trough lands on BDP, utilization 1.
        bdp = 30.0
        for beta in (2.0, 3.0, 4.0):
            threshold = bdp / (beta - 1.0)
            prediction = predict_sawtooth(bdp, threshold, beta, delta=0.0001)
            assert prediction.utilization == pytest.approx(1.0, abs=0.01)

    def test_tiny_k_costs_utilization(self):
        prediction = predict_sawtooth(30.0, 1.0, 4.0)
        assert prediction.utilization < 0.95

    def test_peak_and_trough(self):
        prediction = predict_sawtooth(20.0, 10.0, 4.0)
        assert prediction.w_max == pytest.approx(31.0)
        assert prediction.w_min == pytest.approx(31.0 * 0.75)

    def test_larger_beta_lower_queue_at_eq1_bound(self):
        bdp = 30.0
        queues = []
        for beta in (2.0, 3.0, 4.0, 5.0, 6.0):
            threshold = bdp / (beta - 1.0)
            queues.append(predict_sawtooth(bdp, threshold, beta).mean_queue_packets)
        assert queues == sorted(queues, reverse=True)

    def test_meets_eq1_flag(self):
        # A K meeting Eq. 1 keeps the link full; one below it does not.
        assert 5.0 < min_marking_threshold(30.0, 4.0) <= 15.0
        assert predict_sawtooth(30.0, 15.0, 4.0).utilization == pytest.approx(1.0)
        assert predict_sawtooth(30.0, 5.0, 4.0).utilization < 1.0

    def test_marking_period(self):
        # One cut per sawtooth: the window climbs from trough to peak by
        # delta a round.
        prediction = predict_sawtooth(20.0, 10.0, 4.0, delta=2.0)
        assert prediction.cycle_rounds == pytest.approx(
            (prediction.w_max - prediction.w_min) / 2.0
        )

    def test_utilization_map_grid(self):
        # Utilization is monotone in K for fixed beta.
        for beta in (2.0, 4.0):
            utils = [predict_sawtooth(30.0, k, beta).utilization for k in (5, 10, 30)]
            assert utils == sorted(utils)

    def test_validation(self):
        with pytest.raises(ValueError):
            predict_sawtooth(0.0, 10, 4)
        with pytest.raises(ValueError):
            predict_sawtooth(30, -1, 4)
        with pytest.raises(ValueError):
            predict_sawtooth(30, 10, 1.0)
        with pytest.raises(ValueError):
            predict_sawtooth(30, 10, 4, delta=0)

    @given(
        bdp=st.floats(2.0, 200.0),
        threshold=st.floats(0.0, 100.0),
        beta=st.floats(2.0, 8.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounds_always_hold(self, bdp, threshold, beta):
        prediction = predict_sawtooth(bdp, threshold, beta)
        assert 0.0 < prediction.utilization <= 1.0
        assert prediction.mean_queue_packets >= 0.0
        assert prediction.w_min <= prediction.w_max
        # Mean queue can never exceed the peak standing queue (~K + delta).
        assert prediction.mean_queue_packets <= threshold + prediction.delta + 1e-9


class TestAgainstSimulator:
    @pytest.mark.parametrize(
        "beta,threshold", [(2.0, 20), (4.0, 10), (4.0, 20), (6.0, 10)]
    )
    def test_prediction_matches_packet_simulation(self, beta, threshold):
        rate, rtt = 1e9, 225e-6
        bdp = bandwidth_delay_product_packets(rate, rtt)
        prediction = predict_sawtooth(bdp, threshold, beta)

        net = build_single_bottleneck(
            num_pairs=1, bottleneck_rate_bps=rate, rtt=rtt,
            marking_threshold=threshold,
        )
        monitor = QueueMonitor(net.sim, [net.forward_bottleneck], 0.0005)
        monitor.start()
        conn = MptcpConnection(net, "S0", "D0", [net.flow_path(0)],
                               scheme="xmp", beta=beta)
        conn.start()
        net.sim.run(until=0.4)

        measured_util = net.forward_bottleneck.utilization(0.4)
        measured_queue = monitor.series.mean(net.forward_bottleneck.name)
        # The closed form upper-bounds utilization near the Eq. 1 boundary
        # (see the module docstring); measured may sit up to ~9% below.
        assert measured_util <= prediction.utilization + 0.02
        assert measured_util == pytest.approx(prediction.utilization, abs=0.1)
        assert measured_queue == pytest.approx(
            prediction.mean_queue_packets, abs=4.0
        )

"""The fluid model's Eq. 2 integrators: agreement with the closed-form
equilibria (Eq. 3), the analysis module and the packet simulator, plus
hypothesis-based cross-checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fluid
from repro.core import analysis, utility


class TestFluidAnalysisConsistency:
    @given(
        bdp=st.floats(5.0, 100.0),
        beta=st.floats(2.0, 6.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_sawtooth_peak_exceeds_trough_by_one_beta_cut(self, bdp, beta):
        prediction = analysis.predict_sawtooth(bdp, bdp / 2, beta)
        if prediction.w_min > 2.0:  # not floored
            assert prediction.w_min == pytest.approx(
                prediction.w_max * (1 - 1 / beta)
            )

    @given(threshold=st.floats(1.0, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_more_k_never_hurts_utilization(self, threshold):
        low = analysis.predict_sawtooth(30.0, threshold, 4.0).utilization
        high = analysis.predict_sawtooth(30.0, threshold * 1.5, 4.0).utilization
        assert high >= low - 1e-9

    def test_fluid_equilibrium_against_analysis_queue(self):
        """The ODE's standing queue and the sawtooth's mean queue should
        roughly agree for one flow (the ODE smooths the sawtooth)."""
        bdp_rtt = 225e-6
        capacity = 1e9
        bdp = capacity * bdp_rtt / fluid.PACKET_BITS
        threshold = 10
        ode = fluid.integrate_shared_link(
            num_flows=1, capacity_bps=capacity, base_rtt=bdp_rtt,
            threshold=threshold, duration=0.25,
        )
        sawtooth = analysis.predict_sawtooth(bdp, threshold, 4.0)
        assert ode.steady_state_queues()[0] == pytest.approx(
            sawtooth.mean_queue_packets, abs=4.0
        )

    @given(p=st.floats(0.01, 0.9))
    @settings(max_examples=30, deadline=None)
    def test_ode_fixed_point_equals_eq3_inverse(self, p):
        w_star = utility.equilibrium_window(p, 1.0, 4.0)
        drift = fluid.bos_window_ode(w_star, p, 1.0, 4.0, 1e-4)
        assert drift == pytest.approx(0.0, abs=1e-6)


class TestFluidTrajectories:
    def test_alternating_marks_produce_sawtooth(self):
        """Periodic marking gives a bounded oscillation, not divergence."""
        period = 0.01

        def p_of_t(t):
            return 1.0 if (t % period) < 0.0005 else 0.0

        trajectory = fluid.integrate_single_flow(
            p_of_t, duration=0.2, dt=1e-5, w0=10.0,
        )
        tail = trajectory[len(trajectory) // 2:]
        assert max(tail) < 300
        assert min(tail) >= 1.0
        assert max(tail) - min(tail) > 1.0  # genuinely oscillating

    def test_result_sampling_consistency(self):
        result = fluid.integrate_shared_link(
            num_flows=3, capacity_bps=1e9, base_rtt=2e-4,
            threshold=10, duration=0.05,
        )
        assert result.link_names == ("link",)
        assert len(result.times) == len(result.queues[0])
        assert list(result.windows.columns) == list(result.rates.columns) == [0, 1, 2]
        for series in (result.windows, result.rates, result.queues):
            assert series.times == result.times
            for column in series.columns.values():
                assert len(column) == len(result.times)
        assert list(result.times) == sorted(result.times)

    def test_steady_state_empty_result(self):
        empty = fluid.FluidTrajectory()
        assert empty.steady_state_windows() == []
        assert empty.steady_state_queues() == []
        assert len(empty.times) == 0


class TestSingleFlowOde:
    def test_converges_to_eq3_fixed_point(self):
        p = 0.2
        beta, delta = 4.0, 1.0
        trajectory = fluid.integrate_single_flow(
            lambda t: p, duration=0.2, dt=1e-5, beta=beta, delta=delta
        )
        expected = utility.equilibrium_window(p, delta, beta)
        assert trajectory[-1] == pytest.approx(expected, rel=0.02)

    def test_fixed_point_is_stationary(self):
        p = 0.1
        w_star = utility.equilibrium_window(p, 1.0, 4.0)
        assert fluid.bos_window_ode(w_star, p, 1.0, 4.0, 1e-4) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_drift_sign(self):
        p = 0.1
        w_star = utility.equilibrium_window(p, 1.0, 4.0)
        assert fluid.bos_window_ode(w_star / 2, p, 1.0, 4.0, 1e-4) > 0
        assert fluid.bos_window_ode(w_star * 2, p, 1.0, 4.0, 1e-4) < 0

    def test_no_marks_grows_delta_per_rtt(self):
        rtt = 1e-4
        trajectory = fluid.integrate_single_flow(
            lambda t: 0.0, duration=10 * rtt, dt=1e-6, w0=5.0, rtt=rtt
        )
        assert trajectory[-1] == pytest.approx(15.0, rel=0.01)

    def test_larger_delta_larger_equilibrium(self):
        p = 0.2
        small = fluid.integrate_single_flow(lambda t: p, 0.1, delta=0.5)[-1]
        large = fluid.integrate_single_flow(lambda t: p, 0.1, delta=2.0)[-1]
        assert large > 2 * small

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fluid.integrate_single_flow(lambda t: 0.5, duration=0)
        with pytest.raises(ValueError):
            fluid.integrate_single_flow(lambda t: 1.5, duration=0.01)
        with pytest.raises(ValueError):
            fluid.bos_window_ode(1.0, 0.1, 1.0, 4.0, 0.0)


class TestMarkingProbability:
    def test_half_at_threshold(self):
        assert fluid.threshold_marking_probability(10, 10) == pytest.approx(0.5)

    def test_monotone(self):
        ps = [fluid.threshold_marking_probability(q, 10) for q in range(0, 30)]
        assert ps == sorted(ps)

    def test_sharp_far_from_threshold(self):
        assert fluid.threshold_marking_probability(0, 10) < 0.01
        assert fluid.threshold_marking_probability(20, 10) > 0.99

    def test_width_validation(self):
        with pytest.raises(ValueError):
            fluid.threshold_marking_probability(5, 10, width=0)


class TestSharedLink:
    def test_queue_settles_near_threshold(self):
        result = fluid.integrate_shared_link(
            num_flows=2, capacity_bps=1e9, base_rtt=225e-6,
            threshold=10, duration=0.2,
        )
        (queue,) = result.steady_state_queues()
        assert 5 < queue < 20

    def test_equal_flows_get_equal_windows(self):
        result = fluid.integrate_shared_link(
            num_flows=4, capacity_bps=1e9, base_rtt=225e-6,
            threshold=10, duration=0.2,
        )
        windows = result.steady_state_windows()
        assert max(windows) - min(windows) < 0.05 * max(windows)

    def test_total_rate_matches_capacity(self):
        capacity = 1e9
        base_rtt = 225e-6
        result = fluid.integrate_shared_link(
            num_flows=2, capacity_bps=capacity, base_rtt=base_rtt,
            threshold=10, duration=0.2,
        )
        windows = result.steady_state_windows()
        (queue,) = result.steady_state_queues()
        capacity_pps = capacity / fluid.PACKET_BITS
        rtt = base_rtt + queue / capacity_pps
        total_pps = sum(windows) / rtt
        assert total_pps == pytest.approx(capacity_pps, rel=0.05)

    def test_delta_ratio_sets_window_ratio(self):
        # TraSh's lever: a flow with twice the delta should hold roughly
        # twice the window at the shared equilibrium (Eq. 8).
        result = fluid.integrate_shared_link(
            num_flows=2, capacity_bps=1e9, base_rtt=225e-6,
            threshold=10, duration=0.3, deltas=[1.0, 2.0],
        )
        w1, w2 = result.steady_state_windows()
        assert w2 / w1 == pytest.approx(2.0, rel=0.2)

    def test_matches_packet_simulator(self):
        """Headline validation: fluid model vs packet-level simulator."""
        from repro.mptcp.connection import MptcpConnection
        from repro.topology.bottleneck import build_single_bottleneck

        # Fluid prediction.
        result = fluid.integrate_shared_link(
            num_flows=2, capacity_bps=1e9, base_rtt=225e-6,
            threshold=10, duration=0.2,
        )
        fluid_windows = result.steady_state_windows()

        # Packet simulation of the same setup.
        net = build_single_bottleneck(
            num_pairs=2, bottleneck_rate_bps=1e9, rtt=225e-6,
            marking_threshold=10,
        )
        conns = []
        for i in range(2):
            conn = MptcpConnection(net, f"S{i}", f"D{i}",
                                   [net.flow_path(i)], scheme="xmp")
            conn.start()
            conns.append(conn)
        net.sim.run(until=0.3)
        packet_windows = [c.subflows[0].sender.cwnd for c in conns]

        for fluid_w, packet_w in zip(fluid_windows, packet_windows):
            assert packet_w == pytest.approx(fluid_w, rel=0.6)

    def test_validation(self):
        with pytest.raises(ValueError):
            fluid.integrate_shared_link(0, 1e9, 1e-4, 10, 0.01)
        with pytest.raises(ValueError):
            fluid.integrate_shared_link(2, 1e9, 1e-4, 10, 0.01, deltas=[1.0])
        with pytest.raises(ValueError):
            fluid.integrate_shared_link(1, 0, 1e-4, 10, 0.01)

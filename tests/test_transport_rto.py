"""Tests for RTT estimation / RTO computation (RFC 6298)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport.rto import DEFAULT_RTO_MIN, RTO_MAX, RttEstimator


class TestFirstSample:
    def test_srtt_equals_first_sample(self):
        est = RttEstimator()
        est.update(0.001)
        assert est.srtt == 0.001
        assert est.rttvar == 0.0005

    def test_rto_floors_at_rto_min(self):
        est = RttEstimator()
        est.update(0.0003)  # srtt+4var = 0.9 ms << 200 ms floor
        assert est.rto == DEFAULT_RTO_MIN

    def test_initial_rto_one_second(self):
        assert RttEstimator().rto == 1.0


class TestSmoothing:
    def test_constant_samples_converge(self):
        est = RttEstimator(rto_min=1e-6)
        for _ in range(100):
            est.update(0.002)
        assert est.srtt == pytest.approx(0.002)
        assert est.rttvar == pytest.approx(0.0, abs=1e-5)
        assert est.rto == pytest.approx(0.002, rel=0.05)

    def test_variance_grows_with_jitter(self):
        est = RttEstimator(rto_min=1e-6)
        for i in range(100):
            est.update(0.002 if i % 2 == 0 else 0.004)
        assert est.rttvar > 0.0005

    def test_rfc_constants(self):
        est = RttEstimator(rto_min=1e-6)
        est.update(0.001)
        est.update(0.002)
        # srtt = 0.001 + (0.002-0.001)/8 ; rttvar = 0.0005 + (0.001-0.0005)/4
        assert est.srtt == pytest.approx(0.001125)
        assert est.rttvar == pytest.approx(0.000625)

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            RttEstimator().update(-0.001)

    def test_sample_counter(self):
        est = RttEstimator()
        for _ in range(7):
            est.update(0.001)
        assert est.samples == 7


class TestBackoff:
    def test_backoff_doubles(self):
        est = RttEstimator()
        est.update(0.001)
        rto = est.rto
        est.backoff()
        assert est.rto == 2 * rto

    def test_backoff_caps_at_max(self):
        est = RttEstimator()
        for _ in range(20):
            est.backoff()
        assert est.rto == RTO_MAX

    def test_update_after_backoff_recomputes(self):
        est = RttEstimator()
        est.update(0.001)
        est.backoff()
        est.backoff()
        est.update(0.001)
        assert est.rto == DEFAULT_RTO_MIN


class TestValidation:
    def test_rto_min_positive(self):
        with pytest.raises(ValueError):
            RttEstimator(rto_min=0)

    def test_rto_max_at_least_min(self):
        with pytest.raises(ValueError):
            RttEstimator(rto_min=2 * RTO_MAX)

    @given(samples=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_rto_always_within_bounds(self, samples):
        est = RttEstimator()
        for sample in samples:
            est.update(sample)
        assert est.rto_min <= est.rto <= RTO_MAX

    @given(samples=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_srtt_within_sample_range(self, samples):
        est = RttEstimator()
        for sample in samples:
            est.update(sample)
        assert min(samples) <= est.srtt <= max(samples)

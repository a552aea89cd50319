"""Tests for unit conversions."""

import pytest

from repro.sim import units


class TestTime:
    def test_milliseconds(self):
        assert units.milliseconds(200) == pytest.approx(0.2)

    def test_microseconds(self):
        assert units.microseconds(225) == pytest.approx(225e-6)

    def test_nanoseconds(self):
        assert units.nanoseconds(500) == pytest.approx(5e-7)

    def test_seconds_identity(self):
        assert units.seconds(1.5) == 1.5


class TestRates:
    def test_gigabit(self):
        assert units.gigabits_per_second(1) == 1e9

    def test_megabit(self):
        assert units.megabits_per_second(300) == 300e6

    def test_kilobit(self):
        assert units.kilobits_per_second(56) == 56e3


class TestSizes:
    def test_kilobytes(self):
        assert units.kilobytes(64) == 64_000

    def test_kibibytes(self):
        assert units.kibibytes(64) == 65_536

    def test_megabytes(self):
        assert units.megabytes(192) == 192_000_000

    def test_gigabytes(self):
        assert units.gigabytes(1) == 1_000_000_000

    def test_bytes_rounds_down(self):
        assert units.bytes_(10.9) == 10


class TestDerived:
    def test_transmission_delay_1500B_gigabit(self):
        # The paper's "one buffered packet will increase RTT by 12 us".
        assert units.transmission_delay(1500, 1e9) == pytest.approx(12e-6)

    def test_transmission_delay_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            units.transmission_delay(1500, 0)

    def test_bdp_matches_paper_example(self):
        # §2.1: 1 Gbps x 225 us / (8 x 1500) ~= 19 packets.
        bdp = units.bandwidth_delay_product_packets(1e9, 225e-6)
        assert bdp == pytest.approx(18.75)

    def test_bdp_fattree_bound(self):
        # §3: 1 Gbps, RTT < 400 us  =>  BDP ~ 33 packets.
        bdp = units.bandwidth_delay_product_packets(1e9, 400e-6)
        assert bdp == pytest.approx(33.3, abs=0.1)

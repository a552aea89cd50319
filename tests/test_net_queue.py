"""Tests for queue disciplines and marking rules."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import Packet, DATA
from repro.net.queue import DropTailQueue, REDQueue, ThresholdECNQueue


def packet(ect: bool = True) -> Packet:
    return Packet(DATA, 1500, 0, 0, ect=ect)


class TestDropTail:
    def test_fifo_order(self):
        queue = DropTailQueue(10)
        packets = [packet() for _ in range(3)]
        for p in packets:
            queue.accept(p)
        assert [queue.pop() for _ in range(3)] == packets

    def test_pop_empty_returns_none(self):
        assert DropTailQueue(10).pop() is None

    def test_drops_when_full(self):
        queue = DropTailQueue(2)
        assert queue.accept(packet())
        assert queue.accept(packet())
        assert not queue.accept(packet())
        assert queue.stats.dropped == 1

    def test_never_marks(self):
        queue = DropTailQueue(100)
        for _ in range(50):
            p = packet()
            queue.accept(p)
            assert not p.ce
        assert queue.stats.marked == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)

    def test_occupancy_tracks_contents(self):
        queue = DropTailQueue(10)
        queue.accept(packet())
        queue.accept(packet())
        assert queue.occupancy == 2
        queue.pop()
        assert queue.occupancy == 1

    def test_stats_counters(self):
        queue = DropTailQueue(10)
        queue.accept(packet())
        queue.pop()
        snap = queue.stats.snapshot()
        assert snap["enqueued"] == 1
        assert snap["dequeued"] == 1
        assert snap["max_occupancy"] == 1


class TestThresholdECN:
    def test_no_marking_below_threshold(self):
        queue = ThresholdECNQueue(100, threshold=10)
        for _ in range(10):
            p = packet()
            queue.accept(p)
            assert not p.ce

    def test_marks_at_threshold(self):
        # The paper's rule: arriving packet marked when the instantaneous
        # queue is larger than K, i.e. the (K+1)-th waiting packet is marked.
        queue = ThresholdECNQueue(100, threshold=10)
        marked = []
        for i in range(15):
            p = packet()
            queue.accept(p)
            marked.append(p.ce)
        assert marked[:10] == [False] * 10
        assert marked[10:] == [True] * 5

    def test_never_marks_non_ect(self):
        queue = ThresholdECNQueue(100, threshold=0)
        p = packet(ect=False)
        queue.accept(p)
        assert not p.ce
        assert queue.stats.marked == 0

    def test_non_ect_still_dropped_on_overflow(self):
        queue = ThresholdECNQueue(1, threshold=0)
        queue.accept(packet(ect=False))
        assert not queue.accept(packet(ect=False))

    def test_marking_resumes_after_drain(self):
        queue = ThresholdECNQueue(100, threshold=2)
        for _ in range(3):
            queue.accept(packet())
        while queue.pop():
            pass
        p = packet()
        queue.accept(p)
        assert not p.ce

    def test_threshold_zero_marks_everything_ect(self):
        queue = ThresholdECNQueue(10, threshold=0)
        p = packet()
        queue.accept(p)
        assert p.ce

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            ThresholdECNQueue(10, threshold=-1)

    @given(
        threshold=st.integers(0, 30),
        arrivals=st.integers(1, 80),
    )
    @settings(max_examples=60, deadline=None)
    def test_marked_count_matches_rule(self, threshold, arrivals):
        """Property: with no dequeues, exactly max(0, n-K) packets marked
        (up to capacity), and drops begin only at capacity."""
        capacity = 100
        queue = ThresholdECNQueue(capacity, threshold)
        marked = 0
        accepted = 0
        for _ in range(arrivals):
            p = packet()
            if queue.accept(p):
                accepted += 1
                marked += p.ce
        assert accepted == min(arrivals, capacity)
        assert marked == max(0, accepted - threshold)


class TestRED:
    def test_ewma_tracks_occupancy(self):
        queue = REDQueue(100, 5, 15, weight=1.0, rng=random.Random(0))
        for _ in range(10):
            queue.accept(packet())
        # weight=1.0 -> avg equals instantaneous occupancy before arrival.
        assert queue.avg == 9

    def test_instantaneous_config_mimics_threshold_rule(self):
        # The paper's DummyNet trick: Wq=1, minth=maxth=K.
        queue = REDQueue(100, 10, 10, weight=1.0, rng=random.Random(0))
        marked = []
        for _ in range(15):
            p = packet()
            queue.accept(p)
            marked.append(p.ce)
        assert marked[:10] == [False] * 10
        assert all(marked[11:])  # above K: always marked

    def test_slow_ewma_delays_marking(self):
        # With a small weight the average lags: a short burst above maxth
        # is NOT marked — the §2.1 argument against averaged marking.
        queue = REDQueue(100, 5, 15, weight=0.002, rng=random.Random(0))
        burst_marked = 0
        for _ in range(30):
            p = packet()
            queue.accept(p)
            burst_marked += p.ce
        assert burst_marked == 0

    def test_no_marking_below_min_threshold(self):
        queue = REDQueue(100, 5, 15, weight=1.0, rng=random.Random(0))
        for _ in range(5):
            p = packet()
            queue.accept(p)
            assert not p.ce

    def test_probabilistic_region_marks_some(self):
        rng = random.Random(1)
        queue = REDQueue(200, 5, 100, max_probability=0.5, weight=1.0, rng=rng)
        marked = 0
        for _ in range(80):
            p = packet()
            queue.accept(p)
            marked += p.ce
        assert 0 < marked < 80

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            REDQueue(100, 5, 15, weight=0.0, rng=random.Random(0))

    def test_threshold_order_validation(self):
        with pytest.raises(ValueError):
            REDQueue(100, 20, 10, rng=random.Random(0))

    def test_never_marks_non_ect(self):
        queue = REDQueue(100, 0, 0, weight=1.0, rng=random.Random(0))
        for _ in range(10):
            p = packet(ect=False)
            queue.accept(p)
            assert not p.ce

"""Tests for tracing one sender's control state with a series sampler."""

import pytest

from repro.metrics.collector import SeriesSampler
from repro.metrics.series import TimeSeries
from repro.mptcp.connection import MptcpConnection

#: The sender fields a cwnd-versus-time trace records, in column order.
FIELDS = (
    "cwnd", "ssthresh", "srtt", "delivered_segments", "flight",
    "retransmissions", "timeouts", "in_recovery",
)


def traced_flow(net, until=0.05, interval=1e-3):
    conn = MptcpConnection(net, "A", "B", net.paths("A", "B"), scheme="xmp")
    sender = conn.subflows[0].sender
    tracer = SeriesSampler(net.sim, interval, until)
    for field in FIELDS:
        tracer.watch(field, lambda field=field: getattr(sender, field) or 0.0)
    tracer.start()
    conn.start()
    net.sim.run(until=until)
    return conn, tracer


class TestFlowTracer:
    def test_samples_collected_on_schedule(self, two_host_net):
        _, tracer = traced_flow(two_host_net, until=0.05, interval=0.01)
        assert 4 <= len(tracer.series) <= 6

    def test_fields_present(self, two_host_net):
        _, tracer = traced_flow(two_host_net)
        assert list(tracer.series.columns) == list(FIELDS)
        for column in tracer.series.columns.values():
            assert len(column) == len(tracer.series.times)

    def test_cwnd_series_positive(self, two_host_net):
        _, tracer = traced_flow(two_host_net)
        assert all(value >= 1.0 for value in tracer.series["cwnd"])
        assert max(tracer.series["cwnd"]) >= 10.0

    def test_delivered_monotone(self, two_host_net):
        _, tracer = traced_flow(two_host_net)
        delivered = list(tracer.series["delivered_segments"])
        assert delivered == sorted(delivered)

    def test_unknown_field_rejected(self, two_host_net):
        _, tracer = traced_flow(two_host_net, until=0.002)
        with pytest.raises(KeyError):
            tracer.series["bogus"]


class TestRateSeriesCsv:
    def test_length_mismatch_rejected(self):
        series = TimeSeries(["a", "b"])
        with pytest.raises(ValueError):
            series.append(0.0, [1.0])
        assert len(series) == 0

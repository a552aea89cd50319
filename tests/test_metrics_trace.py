"""Tests for flow tracing and CSV export."""

import csv
import io

import pytest

from repro.metrics.series import TimeSeries
from repro.metrics.trace import FlowTracer
from repro.mptcp.connection import MptcpConnection


def traced_flow(net, until=0.05, interval=1e-3, size=None):
    conn = MptcpConnection(net, "A", "B", net.paths("A", "B"),
                           scheme="xmp", size_bytes=size)
    tracer = FlowTracer(net.sim, conn.subflows[0].sender,
                        interval=interval, until=until)
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
        assert list(tracer.series.columns) == [
            "cwnd", "ssthresh", "srtt", "delivered_segments", "flight",
            "retransmissions", "timeouts", "in_recovery",
        ]
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

    def test_infinite_ssthresh_encoded_as_minus_one(self, two_host_net):
        _, tracer = traced_flow(two_host_net, until=0.002)
        # Early samples are still in slow start (ssthresh infinite).
        assert tracer.series["ssthresh"][0] == -1.0

    def test_unknown_field_rejected(self, two_host_net):
        _, tracer = traced_flow(two_host_net, until=0.002)
        with pytest.raises(KeyError):
            tracer.series["bogus"]

    def test_csv_round_trip(self, two_host_net):
        _, tracer = traced_flow(two_host_net)
        text = tracer.series.to_csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(tracer.series)
        assert float(rows[-1]["delivered_segments"]) == tracer.series[
            "delivered_segments"
        ][-1]

    def test_write_csv(self, two_host_net, tmp_path):
        _, tracer = traced_flow(two_host_net)
        path = tmp_path / "trace.csv"
        path.write_text(tracer.series.to_csv())
        content = path.read_text()
        assert content.startswith("time,cwnd,ssthresh,")


class TestRateSeriesCsv:
    def test_layout(self):
        series = TimeSeries(["b", "a"])
        series.append(0.0, [1.0, 3.0])
        series.append(0.5, [2.0, 4.0])
        rows = list(csv.reader(io.StringIO(series.to_csv())))
        # Columns export in registration order, after the time column.
        assert rows[0] == ["time", "b", "a"]
        assert rows[1] == ["0.0", "1.0", "3.0"]

    def test_length_mismatch_rejected(self):
        series = TimeSeries(["a", "b"])
        with pytest.raises(ValueError):
            series.append(0.0, [1.0])
        assert len(series) == 0

    def test_empty(self):
        assert TimeSeries().to_csv().strip() == "time"

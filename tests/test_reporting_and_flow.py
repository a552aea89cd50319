"""Tests for text reporting helpers, single-path flows and the shared pool."""

import pytest

from repro.experiments.reporting import format_cdf, format_summary, format_table
from repro.mptcp.connection import MptcpConnection
from repro.transport.cc import RenoCC
from repro.transport.dctcp import DctcpCC
from repro.transport.receiver import EchoMode
from repro.transport.tcp import FiniteSource
from repro.core.bos import BosCC


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table(["A", "Blong"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "A" in lines[1] and "Blong" in lines[1]
        assert all("  " in line for line in lines[3:])

    def test_numbers_coerced(self):
        text = format_table(["x"], [[1.5]])
        assert "1.5" in text


class TestFormatCdf:
    def test_quantiles_shown(self):
        text = format_cdf([1, 2, 3, 4, 5], unit="ms")
        assert "p10=1.4ms" in text and "p50=3ms" in text and "p99=4.96ms" in text
        assert "n=5" in text

    def test_empty(self):
        assert format_cdf([]) == "(no samples)"

    def test_scaling(self):
        text = format_cdf([0.001], unit="ms", scale=1e3)
        assert "p50=1ms" in text


class TestFormatSummaryAndSeries:
    def test_summary_keys_rendered(self):
        summary = {"min": 0.0, "p10": 0.1, "p50": 0.5, "p90": 0.9, "max": 1.0}
        text = format_summary(summary)
        assert "p50=0.5" in text


class TestEchoModeMapping:
    def test_mapping(self):
        assert BosCC().echo_mode is EchoMode.XMP
        assert DctcpCC().echo_mode is EchoMode.DCTCP
        assert RenoCC().echo_mode is EchoMode.CLASSIC


class TestSinglePathFlow:
    """One subflow, uncoupled controller: ``MptcpConnection`` is the flow."""

    def test_infinite_flow(self, two_host_net):
        flow = MptcpConnection(
            two_host_net, "A", "B", two_host_net.paths("A", "B"),
            scheme="bos-uncoupled",
        )
        flow.start()
        two_host_net.sim.run(until=0.05)
        assert not flow.completed
        assert flow.delivered_bytes > 0
        assert flow.total_segments is None

    def test_completion_callback(self, two_host_net):
        seen = []
        flow = MptcpConnection(
            two_host_net, "A", "B", two_host_net.paths("A", "B"),
            scheme="bos-uncoupled", size_bytes=100_000,
            on_complete=lambda conn, now: seen.append((conn, now)),
        )
        flow.start()
        two_host_net.sim.run(until=0.5)
        assert seen == [(flow, flow.complete_time)]

    def test_stop(self, two_host_net):
        flow = MptcpConnection(
            two_host_net, "A", "B", two_host_net.paths("A", "B"),
            scheme="bos-uncoupled",
        )
        flow.start()
        two_host_net.sim.run(until=0.01)
        flow.stop()
        delivered = flow.delivered_bytes
        two_host_net.sim.run(until=0.05)
        assert flow.delivered_bytes == delivered


class TestSharedPool:
    def test_remaining_tracks_grants(self):
        pool = FiniteSource(100)
        assert pool.take(30) == 30
        assert not pool.exhausted
        assert pool.take(100) == 70
        assert pool.granted == pool.total
        assert pool.exhausted

    def test_multiple_consumers_never_over_grant(self):
        pool = FiniteSource(50)
        granted = 0
        for _ in range(10):
            granted += pool.take(16)
        assert granted == 50

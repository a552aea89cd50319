"""The runtime invariant checker: observers, clean validated runs.

The activation registry the validator shares with the other probes is
covered by ``tests/test_sim_probe.py``.
"""

from __future__ import annotations

import pytest

from repro.mptcp.connection import MptcpConnection
from repro.net.link import Link
from repro.net.network import Network
from repro.net.queue import DropTailQueue, ThresholdECNQueue
from repro.sim.engine import Simulator
from repro.sim.probe import active, requested
from repro.validate import InvariantError, Validator, validating

pytestmark = pytest.mark.invariants


def _queue_factory():
    return ThresholdECNQueue(100, 10)


def _two_host_net() -> Network:
    net = Network()
    a = net.add_host("A")
    b = net.add_host("B")
    s = net.add_switch("SW")
    net.connect(a, s, 1e9, 30e-6, queue_factory=_queue_factory)
    net.connect(s, b, 1e9, 30e-6, queue_factory=_queue_factory)
    return net


# ----------------------------------------------------------------------
# The validating() wrapper
# ----------------------------------------------------------------------


class TestHooks:
    def test_no_validator_by_default(self):
        assert active("validate") is None
        assert not requested("validate")

    def test_validating_context_manager(self):
        with validating() as validator:
            assert active("validate") is validator
        assert active("validate") is None
        assert validator.finished


# ----------------------------------------------------------------------
# Zero-cost default: nothing is observed unless a validator is active
# ----------------------------------------------------------------------


class TestDisabledByDefault:
    def test_observer_slots_default_none(self):
        net = _two_host_net()
        assert net.sim.probe is None
        assert all(type(link) is Link for link in net.links)
        assert all(type(link.queue) is ThresholdECNQueue for link in net.links)
        flow = MptcpConnection(net, "A", "B", net.paths("A", "B"),
                               scheme="reno-ecn", size_bytes=10_000)
        assert flow.subflows[0].sender.observer is None
        assert flow.subflows[0].sender.cc.observer is None


# ----------------------------------------------------------------------
# Registration and clean runs
# ----------------------------------------------------------------------


class TestValidatedRuns:
    def test_clean_single_path_run(self):
        with validating() as validator:
            net = _two_host_net()
            flow = MptcpConnection(net, "A", "B", net.paths("A", "B"),
                                   scheme="reno-ecn", size_bytes=100_000)
            flow.start()
            net.sim.run(until=0.2)
        assert flow.subflows[0].sender.completed
        assert not validator.violations
        assert validator.checks > 0
        assert validator.watched_objects >= 1 + 4 + 4 + 1  # sim+links+queues+sender

    def test_clean_xmp_connection_run(self):
        with validating() as validator:
            net = _two_host_net()
            conn = MptcpConnection(
                net, "A", "B", [net.paths("A", "B")[0]],
                scheme="xmp", size_bytes=200_000,
            )
            conn.start()
            net.sim.run(until=0.3)
        assert conn.completed
        assert not validator.violations
        # The BOS controller was recognised and law-checked.
        assert validator._bos_observers

    def test_watch_idempotent(self):
        validator = Validator()
        sim = Simulator()
        validator.attach(sim)
        validator.attach(sim)
        queue = DropTailQueue(10)
        watched = validator.watch_queue(queue)
        assert validator.watch_queue(queue) is watched
        assert validator.watch_queue(watched) is watched
        assert len(validator._sim_observers) == 1
        assert len(validator._watched_queues) == 1

    def test_summary_and_report(self):
        with validating() as validator:
            net = _two_host_net()
            flow = MptcpConnection(net, "A", "B", net.paths("A", "B"),
                                   scheme="reno-ecn", size_bytes=20_000)
            flow.start()
            net.sim.run(until=0.1)
        summary = validator.summary()
        assert "objects watched" in summary
        assert "0 violations" in summary
        assert validator.report() == ""


# ----------------------------------------------------------------------
# Violation plumbing
# ----------------------------------------------------------------------


class TestViolationPlumbing:
    def test_validating_raises_on_violation(self):
        with pytest.raises(InvariantError, match=r"boom"):
            with validating() as validator:
                validator.record("unit-test", "widget", "boom")

    def test_raise_lists_every_violation_with_context(self):
        validator = Validator()
        validator.record("inv-a", "x", "first")
        validator.record("inv-b", "y", "second")
        with pytest.raises(InvariantError) as excinfo:
            validator.raise_if_violations(context="cell foo/bar")
        message = str(excinfo.value)
        assert "2 invariant violations in cell foo/bar" in message
        assert "[inv-a] x: first" in message
        assert "[inv-b] y: second" in message

    def test_raise_on_violation_false_collects(self):
        with validating(raise_on_violation=False) as validator:
            validator.record("unit-test", "widget", "boom")
        assert len(validator.violations) == 1


# ----------------------------------------------------------------------
# The campaign runner integration
# ----------------------------------------------------------------------


class TestRunnerIntegration:
    def _spec(self):
        from repro.experiments.fattree_eval import FatTreeScenario
        from repro.runner import RunSpec

        return RunSpec(
            "fattree", FatTreeScenario(duration=0.005, k=4, seed=1)
        )

    def test_execute_unvalidated_by_default(self):
        from repro.runner.registry import execute

        result = execute(self._spec())
        assert result.metrics.invariant_checks == 0

    def test_execute_validates_under_env(self, monkeypatch):
        from repro.runner.registry import execute

        monkeypatch.setenv("REPRO_VALIDATE", "1")
        result = execute(self._spec())
        assert result.metrics.invariant_checks > 0

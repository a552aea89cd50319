"""Conformance of every row of the scheme table, and of what reads it.

``repro.mptcp.coupling.SCHEMES`` is the one declaration of the congestion
schemes; each test here is parametrised over its rows, so a new row is a
new case rather than a new test.  The property tests pin the shared
coupling base *bit-equal* to the code it replaced: golden digests and
the ledger hash model output, so "close" would not be the same result.
"""

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.trash import TraSh, trash_delta
from repro.fluid import FluidScenario, integrate_model, model_from_network
from repro.fluid.laws import FLUID_LAWS, FLUID_SCHEMES, render_scheme_table
from repro.fluid.solver import SOLVERS, vector_available
from repro.mptcp.connection import MptcpConnection
from repro.mptcp.coupling import SCHEMES, create_coupling, parse_scheme_spec
from repro.mptcp.lia import LiaCoupling, lia_alpha
from repro.sim.probe import probing
from repro.topology.bottleneck import build_single_bottleneck
from repro.transport.cc import Coupling
from repro.validate.invariants import Validator

REPO = Path(__file__).resolve().parent.parent
ROWS = list(SCHEMES.values())
row_cases = pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])


class TestEveryRow:
    @row_cases
    def test_builds_controllers_with_the_rows_signal_and_echo(self, row):
        coupling = create_coupling(row.name, beta=5.0)
        assert isinstance(coupling, Coupling)
        first, second = coupling.make_controller(), coupling.make_controller()
        assert coupling.controllers == [first, second]
        for controller in (first, second):
            assert controller.ecn_capable is row.ecn
            assert controller.echo_mode is row.echo

    @row_cases
    def test_one_subflow_transfer_completes_without_violation(self, row):
        validator = Validator()
        with probing(validator):
            net = build_single_bottleneck(num_pairs=1)
            connection = MptcpConnection(
                net, "S0", "D0", [net.flow_path(0)],
                scheme=row.name, size_bytes=200_000,
            )
            connection.start()
            net.sim.run(until=0.5)
        validator.finish()
        assert connection.completed
        assert not validator.violations, validator.report()

    @row_cases
    def test_fluid_law_integrates_or_is_rejected_by_name(self, row):
        if row.name not in FLUID_LAWS:
            with pytest.raises(ValueError) as error:
                FluidScenario(scheme=row.name)
            for name in FLUID_SCHEMES:
                assert name in str(error.value)
            return
        net = build_single_bottleneck(num_pairs=2)
        model = model_from_network(net, [[net.flow_path(0)], [net.flow_path(1)]])
        finals = []
        for solver in SOLVERS:
            if solver == "vector" and not vector_available():
                continue
            trajectory = integrate_model(
                model, row.name, duration=0.02, dt=2e-5, solver=solver
            )
            finals.append([trajectory.windows[s][-1] for s in range(2)])
            assert all(w >= 1.0 for w in finals[-1])
        for reference, other in zip(finals[0], finals[-1]):
            assert other == pytest.approx(reference, rel=1e-6)


class TestReadersFollowTheTable:
    def test_names_in_table_order(self):
        assert FLUID_SCHEMES == tuple(n for n in SCHEMES if n in FLUID_LAWS)
        assert set(FLUID_LAWS) <= set(SCHEMES)

    def test_catalog_choices_are_the_tables(self):
        from repro.experiments.catalog import experiment

        flags = dict(experiment("fluid").flags)
        assert flags["--scheme"]["choices"] == FLUID_SCHEMES
        for name in ("workload", "incast"):
            assert dict(experiment(name).flags)["--schemes"]["type"] is parse_scheme_spec

    @pytest.mark.parametrize("spec", ["xmp-0", "lia-00", "bogus", "bogus-2", ""])
    def test_bad_specs_fail_at_parse_time(self, spec):
        with pytest.raises(ValueError):
            parse_scheme_spec(spec)

    def test_design_doc_table_matches_the_rows(self):
        doc = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        assert render_scheme_table() in doc, (
            "DESIGN.md's scheme table is stale: regenerate it with "
            "repro.fluid.laws.render_scheme_table()"
        )


# ----------------------------------------------------------------------
# Bit-equality with the code the base replaced
# ----------------------------------------------------------------------


class StubSender:
    def __init__(self, cwnd, srtt, running, completed):
        self.cwnd, self.srtt = cwnd, srtt
        self.running, self.completed = running, completed

    @property
    def instant_rate(self):
        if self.srtt is None or self.srtt <= 0:
            return 0.0
        return self.cwnd / self.srtt


sender_states = st.lists(
    st.tuples(
        st.floats(1.0, 1e4),
        st.one_of(st.none(), st.just(0.0), st.floats(1e-6, 1.0)),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1, max_size=6,
)


def attach_all(coupling, states, attached):
    senders = []
    for state, attach in zip(states, attached):
        controller = coupling.make_controller()
        if attach:
            senders.append(StubSender(*state))
            controller.attach(senders[-1])
    return [s for s in senders if s.running and not s.completed]


@given(sender_states, st.lists(st.booleans(), min_size=6, max_size=6))
def test_trash_sums_equal_the_parents_formulas(states, attached):
    trash = TraSh(beta=4)
    active = attach_all(trash, states, attached)
    total = 0.0
    for sender in active:
        total += sender.instant_rate
    rtts = [s.srtt for s in active if s.srtt is not None and s.srtt > 0]
    assert trash.total_rate() == total
    assert trash.min_rtt() == (min(rtts) if rtts else None)
    for controller in trash.controllers:
        if controller.sender is None or not rtts:
            assert trash.delta(controller, 0.0) == 1.0
        else:
            assert trash.delta(controller, 0.0) == trash_delta(
                controller.sender.cwnd, total, min(rtts)
            )


@given(sender_states, st.lists(st.booleans(), min_size=6, max_size=6))
def test_lia_aggregates_equal_the_parents_formulas(states, attached):
    coupling = LiaCoupling()
    active = attach_all(coupling, states, attached)
    assert coupling.total_cwnd() == sum(s.cwnd for s in active)
    windows, rtts, known = [], [], True
    for sender in active:
        if sender.srtt is None or sender.srtt <= 0:
            known = False
            break
        windows.append(sender.cwnd)
        rtts.append(sender.srtt)
    assert coupling.alpha() == (lia_alpha(windows, rtts) if known else 0.0)


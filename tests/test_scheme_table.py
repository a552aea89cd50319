"""Conformance of every row of the scheme table, and of what reads it.

``repro.mptcp.coupling.SCHEMES`` is the one declaration of the congestion
schemes; each test here is parametrised over its rows, so a new row is a
new case rather than a new test.  The property tests pin the row laws
*bit-equal* to the code they replaced (golden digests and the ledger
hash model output, so "close" would not be the same result), and check
the ``xmp`` and ``lia`` increases against Eq. 9 and RFC 6356 written
out here.
"""

import math
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fluid import FluidScenario, integrate_model, model_from_network
from repro.fluid.laws import FLUID_SCHEMES, render_scheme_table
from repro.fluid.solver import SOLVERS, vector_available
from repro.mptcp.connection import MptcpConnection
from repro.mptcp.coupling import (
    SCHEMES,
    LawCoupling,
    create_coupling,
    parse_scheme_spec,
)
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
        if row.drift is None:
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
        assert FLUID_SCHEMES == ("xmp", "bos-uncoupled", "lia", "dctcp")
        assert FLUID_SCHEMES == tuple(n for n, row in SCHEMES.items() if row.drift)

    @row_cases
    def test_a_row_with_an_increase_is_read_by_one_coupling(self, row):
        coupling = create_coupling(row.name)
        assert isinstance(coupling, LawCoupling) is (row.increase is not None)
        assert bool(row.flow) is (row.increase is not None)
        if row.increase is not None:
            assert coupling.make_controller().coupling is coupling

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
        self.cwnd, self.rtt = cwnd, SimpleNamespace(srtt=srtt)
        self.running, self.completed = running, completed

    @property
    def srtt(self):
        return self.rtt.srtt

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
    trash = create_coupling("xmp", beta=4)
    active = attach_all(trash, states, attached)
    total = 0.0
    for sender in active:
        total += sender.instant_rate
    rtts = [s.srtt for s in active if s.srtt is not None and s.srtt > 0]
    assert trash.reduce() == ((total, min(rtts)) if rtts else None)
    for controller in trash.controllers:
        if controller.sender is None:
            continue
        delta = trash.increase(controller.sender)
        if not rtts:
            assert delta is None  # BosCC keeps its uncoupled delta = 1
            continue
        # The parent's trash_delta(cwnd, total, min_rtt).
        cwnd, min_rtt = controller.sender.cwnd, min(rtts)
        expected = 1.0 if total <= 0.0 or min_rtt <= 0.0 else cwnd / (total * min_rtt)
        assert delta == expected


def parents_lia_alpha(windows, rtts):
    """The parent's ``lia_alpha``: 0.0 while any RTT is unknown."""
    numerator = 0.0
    denominator = 0.0
    total = 0.0
    for cwnd, rtt in zip(windows, rtts):
        if rtt is None or rtt <= 0:
            return 0.0
        numerator = max(numerator, cwnd / (rtt * rtt))
        denominator += cwnd / rtt
        total += cwnd
    if denominator <= 0:
        return 0.0
    return total * numerator / (denominator * denominator)


@given(sender_states, st.lists(st.booleans(), min_size=6, max_size=6))
def test_lia_aggregates_equal_the_parents_formulas(states, attached):
    coupling = create_coupling("lia")
    active = attach_all(coupling, states, attached)
    alpha = parents_lia_alpha([s.cwnd for s in active], [s.srtt for s in active])
    total = sum(s.cwnd for s in active)
    for controller in coupling.controllers:
        if controller.sender is None:
            continue
        # The parent's LiaCC.increase_per_segment.
        own = 1.0 / max(controller.sender.cwnd, 1.0)
        expected = own if alpha <= 0.0 or total <= 0.0 else min(alpha / total, own)
        assert controller.increase_per_segment(1) == expected


# ----------------------------------------------------------------------
# The two increases against their specifications, written out here
# ----------------------------------------------------------------------

measured_subflows = st.lists(
    st.tuples(st.floats(1.0, 1e4), st.floats(1e-6, 1.0)), min_size=1, max_size=6,
)


def measured(scheme, subflows):
    coupling = create_coupling(scheme)
    for cwnd, srtt in subflows:
        coupling.make_controller().attach(StubSender(cwnd, srtt, True, False))
    return coupling, [controller.sender for controller in coupling.controllers]


@given(measured_subflows)
def test_xmp_increase_is_eq9(subflows):
    """delta_r = (T_r x_r) / (T_s y_s): x_r = w_r/T_r, y_s = sum x, T_s = min T."""
    coupling, senders = measured("xmp", subflows)
    rates = [w / rtt for w, rtt in subflows]
    y_s, t_s = math.fsum(rates), min(rtt for _, rtt in subflows)
    for (w, rtt), x, sender in zip(subflows, rates, senders):
        assert coupling.increase(sender) == pytest.approx(rtt * x / (t_s * y_s), rel=1e-12)


@given(measured_subflows)
def test_lia_increase_is_rfc6356(subflows):
    """RFC 6356 §3: alpha = w_total max_i(w_i/rtt_i^2) / (sum_i w_i/rtt_i)^2,
    and each ACKed segment grows w_i by min(alpha/w_total, 1/w_i)."""
    coupling, _ = measured("lia", subflows)
    w_total = math.fsum(w for w, _ in subflows)
    alpha = (
        w_total * max(w / rtt ** 2 for w, rtt in subflows)
        / math.fsum(w / rtt for w, rtt in subflows) ** 2
    )
    for (w, _), controller in zip(subflows, coupling.controllers):
        expected = min(alpha / w_total, 1.0 / w)
        assert coupling.increase(controller.sender) == pytest.approx(expected, rel=1e-12)
        assert controller.increase_per_segment(1) == coupling.increase(controller.sender)

"""Tests for the fluid backend package (repro.fluid) and the integrator
fixes it depends on: exact step counts, final-state
sampling, tail-fraction validation, Eq. 2/3 equilibrium properties on
the running backend and its agreement with the closed-form sawtooth
analysis, the reference/vector solver equivalence and the one drift
expression both evaluate, the streamed steady state and the
reductions-only result, the marking knee, combinatorial fat-tree paths,
and the runner/telemetry backend plumbing."""

import dataclasses
import gc
import math
import pickle
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fluid
from repro.core import analysis, utility
from repro.core.bos import DEFAULT_BETA, bos_drift
from repro.fluid import (
    FluidScenario,
    integrate_model,
    model_from_network,
    vector_available,
)
from repro.fluid.backend import _build_model, _simulate, _solver_args
from repro.fluid.laws import (
    FLUID_SCHEMES,
    MARKING_WIDTH,
    MAX_EXPONENT,
    MIN_WINDOW,
    threshold_marking_probability,
)
from repro.fluid.solver import (
    _reference_drift,
    _vector_drift,
    sample_count,
    steady_state,
    stream_model,
)
from repro.metrics.series import TimeSeries
from repro.mptcp.coupling import SCHEMES
from repro.net.network import Network
from repro.net.routing import DistinctPathSelector
from repro.sim.units import seconds
from repro.topology.bottleneck import build_single_bottleneck
from repro.topology.fattree import build_fattree
from repro.traffic.permutation import random_derangement

#: The dumbbell's marked link, the one every flow shares.
BOTTLENECK = "SWL->SWR"
STREAM_SOLVERS = ("reference", "vector") if vector_available() else ("reference",)


def _trajectory(scenario):
    """A fluid cell's whole trajectory, integrated in-process."""
    return integrate_model(_build_model(scenario), **_solver_args(scenario))


def _bottleneck_model(flows):
    """The dumbbell's fluid model: ``flows`` one-subflow flows."""
    return _build_model(FluidScenario(flows=flows))


# ----------------------------------------------------------------------
# Satellite 1: float-truncated step counts
# ----------------------------------------------------------------------


class TestStepCount:
    def test_exact_multiple_not_truncated(self):
        # The original bug: int(0.3 / 1e-4) == 2999 silently shortens
        # the horizon by one step.
        assert int(0.3 / 1e-4) == 2999
        assert fluid.step_count(0.3, 1e-4) == 3000

    @pytest.mark.parametrize(
        "duration, dt, expected",
        [
            (0.2, 2e-5, 10000),
            (0.1, 1e-4, 1000),
            (1.0, 1e-3, 1000),
            (0.3, 1e-4, 3000),
            (3e-4, 1e-4, 3),
        ],
    )
    def test_near_multiples(self, duration, dt, expected):
        assert fluid.step_count(duration, dt) == expected

    def test_at_least_one_step(self):
        assert fluid.step_count(1e-6, 1e-4) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            fluid.step_count(0.0, 1e-4)
        with pytest.raises(ValueError):
            fluid.step_count(0.1, 0.0)
        with pytest.raises(ValueError):
            fluid.step_count(-0.1, 1e-4)

    def test_single_flow_integrator_full_horizon(self):
        # duration/dt = 0.3/1e-4: the truncating form would sample 2999
        # steps; the fixed integrator covers all 3000.
        trajectory = integrate_model(
            _bottleneck_model(1), "bos-uncoupled", duration=0.3, dt=1e-4,
            sample_stride=1,
        )
        assert trajectory.steps == len(trajectory.times) == 3000


# ----------------------------------------------------------------------
# Satellite 2: sampling stride always records the final state
# ----------------------------------------------------------------------


class TestSampling:
    def test_final_state_recorded_when_stride_misses(self):
        # 30 steps, stride 16 -> raw strides hit i=0 and 16 only; the
        # final step (i=29) must be recorded anyway.
        dt = 1e-4
        result = integrate_model(
            _bottleneck_model(1), "bos-uncoupled", duration=30 * dt, dt=dt,
            sample_stride=16,
        )
        assert list(result.times) == pytest.approx([0.0, 16 * dt, 29 * dt])

    def test_stride_one_samples_every_step(self):
        result = integrate_model(
            _bottleneck_model(1), "bos-uncoupled", duration=0.001, dt=1e-4,
            sample_stride=1,
        )
        assert len(result.times) == 10

    def test_stride_validation(self):
        with pytest.raises(ValueError):
            integrate_model(
                _bottleneck_model(1), "bos-uncoupled", duration=0.001,
                sample_stride=0,
            )

    def test_default_stride_is_named_constant(self):
        assert fluid.SAMPLE_STRIDE == 16

    def test_trajectory_final_state_recorded(self):
        dt = 1e-4
        trajectory = integrate_model(
            _bottleneck_model(1), "xmp", duration=30 * dt, dt=dt, sample_stride=16
        )
        assert trajectory.times[-1] == pytest.approx(29 * dt)
        assert trajectory.steps == 30

    def test_result_sampling_consistency(self):
        model = _bottleneck_model(3)
        result = integrate_model(model, "bos-uncoupled", duration=0.05)
        assert result.link_names == model.link_names
        assert list(result.windows.columns) == list(result.rates.columns) == [0, 1, 2]
        assert list(result.queues.columns) == list(range(len(model.link_names)))
        for series in (result.windows, result.rates, result.queues):
            assert series.times == result.times
            for column in series.columns.values():
                assert len(column) == len(result.times)
        assert list(result.times) == sorted(result.times)

    def test_steady_state_empty_result(self):
        empty = fluid.FluidTrajectory()
        assert empty.steady_state_windows() == []
        assert empty.steady_state_rates() == []
        assert len(empty.times) == 0


# ----------------------------------------------------------------------
# Satellite 3: tail_fraction validation
# ----------------------------------------------------------------------


def _column(values):
    """A one-column series holding ``values`` at unit-spaced instants."""
    series = TimeSeries(["v"])
    for i, value in enumerate(values):
        series.append(float(i), [value])
    return series


class TestTailFraction:
    def _result(self):
        return integrate_model(_bottleneck_model(2), "bos-uncoupled", duration=0.01)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5, 2.0])
    def test_out_of_range_raises(self, bad):
        result = self._result()
        with pytest.raises(ValueError):
            result.steady_state_windows(tail_fraction=bad)
        with pytest.raises(ValueError):
            result.steady_state_rates(tail_fraction=bad)
        with pytest.raises(ValueError):
            _column([1.0, 2.0]).tail_mean("v", bad)

    def test_full_fraction_is_plain_mean(self):
        assert _column([1.0, 2.0, 3.0]).tail_mean("v", 1.0) == pytest.approx(2.0)

    def test_tiny_fraction_keeps_final_sample(self):
        assert _column([1.0, 2.0, 3.0]).tail_mean("v", 1e-9) == pytest.approx(3.0)

    def test_empty_series_raises(self):
        with pytest.raises(ValueError):
            _column([]).tail_mean("v", 0.3)

    def test_single_sample(self):
        assert _column([7.0]).tail_mean("v", 0.3) == pytest.approx(7.0)


# ----------------------------------------------------------------------
# Satellite 4: equilibrium property tests (Eq. 3, conservation)
# ----------------------------------------------------------------------


class TestEquilibriumProperties:
    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [2.0, 4.0, 8.0])
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5])
    def test_eq3_fixed_point_grid(self, delta, beta, p):
        """Eq. 2's drift, the expression both solvers evaluate, vanishes
        at w* = delta*beta*(1-p)/p across the knob grid."""
        w_star = utility.equilibrium_window(p, delta, beta)
        assert bos_drift(w_star, p, delta, beta, 1e-4) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("num_flows", [1, 2, 4, 8])
    def test_aggregate_rate_matches_capacity(self, num_flows):
        """Conservation in Eq. 2's own terms: N BOS flows' windows over
        the RTT their steady-state queue sets fill the link, never exceed
        it beyond integration tolerance."""
        scenario = FluidScenario(
            scheme="bos-uncoupled", flows=num_flows, duration=seconds(0.3)
        )
        result = _simulate(scenario)
        capacity_pps = scenario.link_rate_bps / fluid.PACKET_BITS
        queue = result.queues[result.link_names.index(BOTTLENECK)]
        rtt = _build_model(scenario).base_rtt[0] + queue / capacity_pps
        assert sum(result.windows) / rtt == pytest.approx(capacity_pps, rel=0.05)

    @pytest.mark.parametrize("solver", STREAM_SOLVERS)
    @pytest.mark.parametrize("flows", [1, 4])
    @pytest.mark.parametrize("beta", [2.0, 4.0, 8.0])
    def test_backend_windows_satisfy_eq3(self, beta, flows, solver):
        """Eq. 3 on the running backend: every steady-state window is
        w* = delta*beta*(1-p)/p, delta = 1, at the marking probability of
        the bottleneck's own steady-state queue."""
        result = _simulate(FluidScenario(
            scheme="bos-uncoupled", flows=flows, beta=beta,
            duration=seconds(0.2), solver=solver,
        ))
        queue = result.queues[result.link_names.index(BOTTLENECK)]
        p = threshold_marking_probability(queue, result.scenario.marking_threshold)
        expected = utility.equilibrium_window(p, 1.0, beta)
        assert list(result.windows) == pytest.approx([expected] * flows, rel=1e-9)

    @pytest.mark.parametrize("scheme", FLUID_SCHEMES)
    @pytest.mark.parametrize("flows", [1, 8])
    def test_backend_aggregate_matches_capacity(self, flows, scheme):
        """Conservation: N flows sharing one link fill it, never exceed it
        beyond integration tolerance, for every scheme."""
        scenario = FluidScenario(
            scheme=scheme, topology="bottleneck", flows=flows,
            duration=seconds(0.2),
        )
        result = _simulate(scenario)
        total = sum(result.flow_goodputs_bps())
        assert total == pytest.approx(1e9, rel=0.05)

    @given(p=st.floats(0.01, 0.9))
    @settings(max_examples=30, deadline=None)
    def test_ode_fixed_point_equals_eq3_inverse(self, p):
        w_star = utility.equilibrium_window(p, 1.0, 4.0)
        assert bos_drift(w_star, p, 1.0, 4.0, 1e-4) == pytest.approx(0.0, abs=1e-6)

    def test_fixed_point_is_stationary(self):
        p = 0.1
        w_star = utility.equilibrium_window(p, 1.0, 4.0)
        assert bos_drift(w_star, p, 1.0, 4.0, 1e-4) == pytest.approx(0.0, abs=1e-6)

    def test_drift_sign(self):
        p = 0.1
        w_star = utility.equilibrium_window(p, 1.0, 4.0)
        assert bos_drift(w_star / 2, p, 1.0, 4.0, 1e-4) > 0
        assert bos_drift(w_star * 2, p, 1.0, 4.0, 1e-4) < 0

    def test_no_marks_grows_delta_per_rtt(self):
        rtt = 1e-4
        for delta in (0.5, 1.0, 2.0):
            assert bos_drift(5.0, 0.0, delta, 4.0, rtt) * rtt == pytest.approx(delta)

    def test_equal_flows_get_equal_goodput(self):
        result = _simulate(FluidScenario(flows=4, duration=seconds(0.2)))
        goodputs = result.flow_goodputs_bps()
        assert max(goodputs) - min(goodputs) < 0.02 * max(goodputs)


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
        """The backend's standing bottleneck queue and the sawtooth's mean
        queue should roughly agree for one flow (the ODE smooths the
        sawtooth)."""
        scenario = FluidScenario(scheme="bos-uncoupled", flows=1, duration=seconds(0.25))
        result = _simulate(scenario)
        bdp = scenario.link_rate_bps * scenario.base_rtt / fluid.PACKET_BITS
        sawtooth = analysis.predict_sawtooth(bdp, scenario.marking_threshold, scenario.beta)
        assert result.queues[result.link_names.index(BOTTLENECK)] == pytest.approx(
            sawtooth.mean_queue_packets, abs=4.0
        )


# ----------------------------------------------------------------------
# Tentpole: the fluid backend proper
# ----------------------------------------------------------------------


class TestFluidBackend:
    def test_queue_settles_near_threshold(self):
        result = _simulate(FluidScenario(flows=4, duration=seconds(0.2)))
        queue = result.queues[result.link_names.index(BOTTLENECK)]
        assert 5 < queue < 15

    def test_events_counts_state_updates(self):
        scenario = FluidScenario(flows=2, duration=seconds(0.01))
        result = _simulate(scenario)
        steps = fluid.step_count(scenario.duration, scenario.dt)
        # 2 flows x 1 subflow + bottleneck topology links.
        expected = steps * (2 + len(result.link_names))
        assert result.events == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            _simulate(FluidScenario(scheme="cubic"))
        with pytest.raises(ValueError):
            _simulate(FluidScenario(topology="torus"))
        with pytest.raises(ValueError):
            _simulate(FluidScenario(flows=0))
        with pytest.raises(ValueError):
            _simulate(FluidScenario(subflows=0))

    def test_label(self):
        assert FluidScenario().label() == "XMP/bottleneck-f4"
        assert (
            FluidScenario(scheme="lia", topology="fattree",
                          flows=16, subflows=2).label()
            == "LIA-2/fattree-f16"
        )

    def test_runs_through_runner_and_cache(self):
        from repro.runner import Campaign, RunCache, RunSpec

        campaign = Campaign(cache=RunCache())
        spec = RunSpec("fluid", FluidScenario(flows=2, duration=seconds(0.01)))
        first, = campaign.run([spec]).results
        second, = campaign.run([spec]).results
        assert second.metrics.cached
        assert first.value.steady_state_windows() == second.value.steady_state_windows()

    def test_fattree_scenario_subflows_spread_paths(self):
        result = _simulate(FluidScenario(
            topology="fattree", flows=16, subflows=2,
            duration=seconds(0.02),
        ))
        assert len(result.flow_of_subflow) == 32
        assert result.num_flows == 16

    def test_deterministic_across_seeded_runs(self):
        scenario = FluidScenario(
            topology="fattree", flows=8, subflows=2,
            duration=seconds(0.01), seed=7,
        )
        a = _trajectory(scenario)
        b = _trajectory(scenario)
        assert a.windows == b.windows
        assert a.queues == b.queues


# ----------------------------------------------------------------------
# Reference vs vector solver equivalence
# ----------------------------------------------------------------------


@pytest.mark.skipif(not vector_available(), reason="numpy not installed")
class TestSolverEquivalence:
    @pytest.mark.parametrize("scheme", FLUID_SCHEMES)
    def test_solvers_agree(self, scheme):
        """The numpy solver is a vectorization, not a reinterpretation:
        trajectories match the pure-Python reference to float tolerance."""
        base = FluidScenario(
            scheme=scheme, topology="fattree", flows=8, subflows=2,
            duration=seconds(0.01),
        )
        ref = _trajectory(base)
        vec = _trajectory(FluidScenario(
            scheme=scheme, topology="fattree", flows=8, subflows=2,
            duration=seconds(0.01), solver="vector",
        ))
        for r_series, v_series in zip(
            ref.windows.columns.values(), vec.windows.columns.values()
        ):
            for r, v in zip(r_series, v_series):
                assert math.isclose(r, v, rel_tol=1e-9)
        for r_series, v_series in zip(
            ref.queues.columns.values(), vec.queues.columns.values()
        ):
            for r, v in zip(r_series, v_series):
                assert math.isclose(r, v, rel_tol=1e-9, abs_tol=1e-9)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError):
            _simulate(FluidScenario(solver="magic"))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_k4_goodputs_agree_to_nine_digits(self, seed):
        """The ledger formats fluid goodputs with ``.9g``; on its k=4 XMP-2
        cell both solvers must print the same digits (the rule behind the
        identical ``k4_ref``/``k4_vec`` digests)."""
        printed = [
            [f"{g:.9g}" for g in _simulate(FluidScenario(
                topology="fattree", flows=64, subflows=2,
                duration=seconds(0.02), seed=seed, solver=solver,
            )).flow_goodputs_bps()]
            for solver in ("reference", "vector")
        ]
        assert printed[0] == printed[1]


STREAM_DT = 2e-5


# ----------------------------------------------------------------------
# The model is stdlib columns; the hop matrix equals the reductions it
# replaced
# ----------------------------------------------------------------------


class TestModelColumns:
    def test_consumes_a_generator_into_array_columns(self):
        net = build_fattree(k=4)
        hosts = net.host_names
        drawn = []

        def flow_paths():
            for flow, dst in enumerate(hosts[1:] + hosts[:1]):
                drawn.append(flow)
                yield net.paths(hosts[flow], dst)[:2]

        paths = flow_paths()
        model = model_from_network(net, paths)
        assert next(paths, None) is None and drawn == list(range(len(hosts)))
        assert model.num_flows == len(hosts)
        kinds = {
            field.name: type(getattr(model, field.name))
            for field in dataclasses.fields(model)
        }
        assert kinds == {
            "link_names": tuple, "num_flows": int,
            **{name: array for name in (
                "capacity_pps", "ecn_threshold", "drop_threshold",
                "flow_of", "base_rtt", "path_start", "path_links",
            )},
        }
        assert all(isinstance(name, str) for name in model.link_names)
        for name in ("capacity_pps", "ecn_threshold", "drop_threshold"):
            column = getattr(model, name)
            assert column.typecode == "d" and len(column) == len(model.link_names)
        assert model.flow_of.typecode == "q" and model.base_rtt.typecode == "d"
        assert len(model.flow_of) == len(model.base_rtt) == len(model.path_start) - 1
        assert model.path_start[0] == 0 and model.path_start[-1] == len(model.path_links)
        assert list(model.flow_of) == sorted(model.flow_of)

    @pytest.mark.parametrize("flow_paths, complaint", [
        ([[]], "no paths"), ([[()]], "empty path"),
    ])
    def test_flows_without_a_path_are_rejected(self, flow_paths, complaint):
        net = build_single_bottleneck(num_pairs=1)
        with pytest.raises(ValueError, match=complaint):
            model_from_network(net, iter(flow_paths))


def reduceat_step(np, model, law, knees, beta, dt, w, q, state):
    """One vector Euler step as the solver took it before the hop matrix:
    per-subflow ``np.add.reduceat`` / ``np.multiply.reduceat`` over the
    flat path array and a ``bincount`` scatter over it.  The oracle the
    hop matrix must equal bit for bit."""
    flat = np.frombuffer(model.path_links, dtype=np.int64)
    starts = np.frombuffer(model.path_start, dtype=np.int64)
    caps = np.frombuffer(model.capacity_pps)
    exponent = (np.frombuffer(knees) - q) / MARKING_WIDTH
    p_link = 1.0 / (1.0 + np.exp(np.minimum(exponent, MAX_EXPONENT)))
    rtt = np.frombuffer(model.base_rtt) + np.add.reduceat((q / caps)[flat], starts[:-1])
    survival = np.multiply.reduceat(1.0 - p_link[flat], starts[:-1])
    x = w / rtt
    flow_of = np.frombuffer(model.flow_of, dtype=np.int64)
    offsets = np.searchsorted(flow_of, np.arange(model.num_flows))
    dw, dstate = _vector_drift(np, law, beta, w, 1.0 - survival, rtt, x, offsets, flow_of, state)
    arrivals = np.bincount(flat, weights=np.repeat(x, np.diff(starts)), minlength=len(caps))
    return (
        np.maximum(w + dt * dw, MIN_WINDOW),
        x,
        np.maximum(q + dt * (arrivals - caps), 0.0),
        None if state is None else state + dt * dstate,
    )


@pytest.mark.skipif(not vector_available(), reason="numpy not installed")
@pytest.mark.parametrize("scheme", FLUID_SCHEMES)
@pytest.mark.parametrize("topology, flows, subflows, widths", [
    ("fattree", 64, 3, {2, 4, 6}), ("bottleneck", 4, 2, {3}),
])
def test_hop_matrix_equals_reduceat_oracle(scheme, topology, flows, subflows, widths):
    """Every step of the vector solver equals :func:`reduceat_step` from
    the solver's own previous state, with ``==``: the per-subflow RTT
    (through the yielded rates), the path survival (through the windows)
    and the per-link arrivals (through the queues).  Four permutation
    rounds put many subflows, at different hop positions, on each link,
    so a scatter in another order would show."""
    import numpy as np

    model = _build_model(FluidScenario(
        scheme=scheme, topology=topology, flows=flows, subflows=subflows,
    ))
    assert set(np.diff(np.frombuffer(model.path_start, dtype=np.int64))) == widths
    law = SCHEMES[scheme]
    knees = model.ecn_threshold if SCHEMES[scheme].ecn else model.drop_threshold
    w = np.full(len(model.flow_of), 20.0)  # enough to queue from the first step
    q = np.zeros(len(model.link_names))
    state = None if law.state0 is None else np.full(len(w), law.state0)
    steps = 0
    for _, windows, rates, queues in stream_model(
        model, scheme, duration=60 * STREAM_DT, dt=STREAM_DT, w0=20.0,
        sample_stride=1, solver="vector",
    ):
        w, x, q, state = reduceat_step(
            np, model, law, knees, DEFAULT_BETA, STREAM_DT, w, q, state
        )
        assert rates.tolist() == x.tolist()
        assert windows.tolist() == w.tolist()
        assert queues.tolist() == q.tolist()
        steps += 1
    assert steps == 60 and q.max() > 0.0


# ----------------------------------------------------------------------
# One law, one expression: both solvers evaluate the same drift
# ----------------------------------------------------------------------


def check_one_expression(scheme, beta, subflows, sizes):
    """A law's drift evaluated per subflow on floats (the reference path)
    equals its one evaluation on arrays (the vector path) with ``==``.

    ``subflows`` holds ``(w, rtt, p, alpha)`` draws and ``sizes`` the
    flows' subflow counts.  Flows have one or two subflows: over three or
    more, ``sum`` and ``np.add.reduceat`` add in different orders, the
    one place the solvers' own arithmetic enters a law.
    """
    import numpy as np

    law = SCHEMES[scheme]
    w, rtt, p, alpha = (list(column) for column in zip(*subflows))
    x = [window / r for window, r in zip(w, rtt)]
    slices, flow_of = [], []
    for flow, size in enumerate(sizes):
        slices.append((len(flow_of), len(flow_of) + size))
        flow_of += [flow] * size
    state = [None] * len(w) if law.state0 is None else alpha
    floats = _reference_drift(law, beta, w, p, rtt, x, slices, flow_of, state)
    dw, dstate = _vector_drift(
        np, law, beta, *(np.array(column) for column in (w, p, rtt, x)),
        np.array([start for start, _ in slices]), np.array(flow_of),
        None if law.state0 is None else np.array(alpha),
    )
    assert [d for d, _ in floats] == dw.tolist()
    if law.state0 is not None:
        assert [d for _, d in floats] == dstate.tolist()


@pytest.mark.skipif(not vector_available(), reason="numpy not installed")
class TestOneExpression:
    @given(
        scheme=st.sampled_from(FLUID_SCHEMES),
        beta=st.floats(2.0, 16.0),
        sizes=st.lists(st.integers(1, 2), min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_reference_drift_equals_vector_drift(self, scheme, beta, sizes, data):
        subflow = st.tuples(
            st.floats(1.0, 1e4), st.floats(1e-6, 0.1),
            st.floats(0.0, 1.0), st.floats(0.0, 1.0),
        )
        n = sum(sizes)
        subflows = data.draw(st.lists(subflow, min_size=n, max_size=n))
        check_one_expression(scheme, beta, subflows, sizes)

    def test_law_rows_are_drift_flow_and_state(self):
        for law in map(SCHEMES.get, FLUID_SCHEMES):
            assert callable(law.drift)
            for reduction, term in law.flow:
                assert reduction in (sum, min, max)
                assert callable(term) or term in ("w", "rtt", "x")


# ----------------------------------------------------------------------
# The streamed steady state == the tail means of the collected trajectory
# ----------------------------------------------------------------------

STREAM_FRACTIONS = (0.3, 0.4, 1.0)


def check_streamed_steady_state(scheme, solver, steps, stride):
    """``steady_state`` over ``stream_model`` equals ``tail_mean`` over
    ``integrate_model``'s columns with ``==``, at every fraction."""
    model = _build_model(FluidScenario(
        scheme=scheme, topology="fattree", flows=8, subflows=2,
    ))
    kwargs = dict(duration=steps * STREAM_DT, dt=STREAM_DT,
                  sample_stride=stride, solver=solver)
    trajectory = integrate_model(model, scheme, **kwargs)
    count = sample_count(steps, stride)
    assert len(trajectory.times) == count
    for fraction in STREAM_FRACTIONS:
        windows, rates, queues = steady_state(
            stream_model(model, scheme, **kwargs), count, fraction
        )
        assert list(windows) == trajectory.steady_state_windows(fraction)
        assert list(rates) == trajectory.steady_state_rates(fraction)
        assert list(queues) == [
            trajectory.queues.tail_mean(key, fraction) for key in trajectory.queues.columns
        ]


class TestStreamedSteadyState:
    @pytest.mark.parametrize("solver", STREAM_SOLVERS)
    @pytest.mark.parametrize("scheme", FLUID_SCHEMES)
    @pytest.mark.parametrize(
        "steps, stride",
        [(48, 16), (50, 16), (30, 1), (7, 16), (1, 16)],
        ids=["multiple", "not-multiple", "stride-1", "short", "one-step"],
    )
    def test_grid(self, scheme, solver, steps, stride):
        check_streamed_steady_state(scheme, solver, steps, stride)

    @given(
        scheme=st.sampled_from(FLUID_SCHEMES),
        solver=st.sampled_from(STREAM_SOLVERS),
        steps=st.integers(1, 80),
        stride=st.integers(1, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_steps_and_stride(self, scheme, solver, steps, stride):
        check_streamed_steady_state(scheme, solver, steps, stride)

    @pytest.mark.parametrize("steps, stride, expected", [
        (1, 16, 1), (16, 16, 2), (17, 16, 2), (18, 16, 3), (30, 1, 30),
    ])
    def test_sample_count(self, steps, stride, expected):
        assert sample_count(steps, stride) == expected

    def test_miscounted_stream_raises(self):
        model = _build_model(FluidScenario(flows=1))
        with pytest.raises(RuntimeError):
            steady_state(
                stream_model(model, "xmp", duration=10 * STREAM_DT,
                             dt=STREAM_DT, sample_stride=4),
                3, 0.3,  # steps 0, 4, 8 and 9 are sampled
            )

    def test_result_holds_reductions_only(self):
        result = _simulate(FluidScenario(flows=2, duration=seconds(0.01)))
        assert not hasattr(result, "trajectory")
        assert len(result.windows) == len(result.rates) == 2
        assert len(result.queues) == len(result.link_names)
        assert result.max_steady_state_queue() == max(result.queues)


@pytest.mark.skipif(not vector_available(), reason="numpy not installed")
def test_k8_cell_result_size_and_retention():
    """A k=8, 512 x 2-subflow vector cell pickles to under 100 KB, and
    integrating it costs little beyond building its model: the network
    and path lists are released first and the samples are folded as
    they stream (the trajectory-carrying result was 824 KB, +85 %)."""
    scenario = FluidScenario(
        topology="fattree", k=8, flows=512, subflows=2,
        duration=seconds(0.01), solver="vector",
    )
    _simulate(FluidScenario(flows=1, duration=seconds(0.001), solver="vector"))
    gc.collect()
    tracemalloc.start()
    try:
        model = _build_model(scenario)
        build_peak = tracemalloc.get_traced_memory()[1]
        del model
        gc.collect()
        tracemalloc.reset_peak()
        result = _simulate(scenario)
        simulate_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.events == 500 * (1024 + len(result.link_names))
    assert len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)) <= 100_000
    assert simulate_peak <= 1.25 * build_peak, (simulate_peak, build_peak)


class TestScenarioValidation:
    @pytest.mark.parametrize("spec", [
        {"solver": "nope"},
        {"topology": "ring"},
        {"sample_stride": 0},
        {"duration": 0.0},
        {"dt": -1.0},
        {"duration": 0.01, "dt": 0.02},
        {"topology": "fattree", "k": 3},
        {"beta": 1.5},
    ], ids=["solver", "topology", "stride", "duration", "dt", "dt-over-duration",
            "odd-k", "beta"])
    def test_bad_spec_fails_at_construction(self, spec):
        with pytest.raises(ValueError):
            FluidScenario(**spec)

    def test_k_is_checked_only_for_the_fat_tree(self):
        assert FluidScenario(topology="bottleneck", k=3).k == 3


# ----------------------------------------------------------------------
# The marking knee: a logistic at K that never overflows
# ----------------------------------------------------------------------


class TestMarkingKnee:
    def test_half_at_threshold(self):
        assert threshold_marking_probability(10, 10) == pytest.approx(0.5)

    def test_monotone(self):
        ps = [threshold_marking_probability(q, 10) for q in range(0, 30)]
        assert ps == sorted(ps)

    def test_sharp_far_from_threshold(self):
        assert threshold_marking_probability(0, 10) < 0.01
        assert threshold_marking_probability(20, 10) > 0.99

    def test_far_below_a_buffer_sized_knee(self):
        assert 0.0 < threshold_marking_probability(0.0, 2000.0) < 1e-300

    @pytest.mark.parametrize("queue, knee", [
        (0.0, 10.0), (9.5, 10.0), (30.0, 10.0), (0.0, 100.0), (0.0, 1418.0),
    ])
    def test_in_range_probabilities_keep_their_bits(self, queue, knee):
        unclamped = 1.0 / (1.0 + math.exp(-(queue - knee) / MARKING_WIDTH))
        assert threshold_marking_probability(queue, knee) == unclamped

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("solver", STREAM_SOLVERS)
    def test_buffer_sized_knee_integrates(self, solver):
        result = _simulate(FluidScenario(
            scheme="lia", flows=2, queue_capacity=2000,
            duration=seconds(0.01), solver=solver,
        ))
        assert all(0.0 < g <= 1.01e9 for g in result.flow_goodputs_bps())


# ----------------------------------------------------------------------
# Combinatorial fat-tree paths == generic BFS enumeration
# ----------------------------------------------------------------------


def _assert_matches_generic(net, pairs):
    """The construction must reproduce the generic DFS enumeration
    exactly — order and truncation included — or ECMP selections (and
    every golden trace) would silently change."""
    for src, dst in pairs:
        for max_paths in (1, 3, 5, 64):
            constructed = net._construct_paths(src, dst, max_paths)
            generic = Network.paths(net, src, dst, max_paths)
            assert constructed == generic, (src, dst, max_paths)


def _every_pair(net):
    return [(src, dst) for src in net.host_names for dst in net.host_names]


class TestFatTreePathConstruction:
    def test_identical_to_generic_enumeration_k2(self):
        net = build_fattree(k=2)
        _assert_matches_generic(net, _every_pair(net))

    def test_identical_to_generic_enumeration_k4(self):
        net = build_fattree(k=4)
        _assert_matches_generic(net, _every_pair(net))

    def test_identical_to_generic_enumeration_k6(self):
        net = build_fattree(k=6)
        _assert_matches_generic(net, _every_pair(net))

    def test_identical_to_generic_enumeration_k8_sample(self):
        net = build_fattree(k=8)
        rng = random.Random(8)
        _assert_matches_generic(
            net, [tuple(rng.sample(net.host_names, 2)) for _ in range(200)]
        )

    def test_paths_are_fresh_lists(self):
        # Nothing is memoised: a caller that mutates its list cannot
        # corrupt the next caller's.
        net = build_fattree(k=4)
        first = net.paths("h_0_0_0", "h_1_0_0")
        second = net.paths("h_0_0_0", "h_1_0_0")
        assert first == second and first is not second
        first.clear()
        assert net.paths("h_0_0_0", "h_1_0_0") == second

    @pytest.mark.parametrize("order", [(2, 64), (64, 2)], ids=["small-first", "large-first"])
    def test_max_paths_in_either_order(self, order):
        net = build_fattree(k=4)
        for max_paths in order:
            assert len(net.paths("h_0_0_0", "h_1_0_0", max_paths)) == min(max_paths, 4)

    def test_path_selection_retains_only_the_selected_paths(self):
        """Selecting paths for the k16 fluid cell's 10,240 permutation
        pairs may keep the selected paths alive, not every path of every
        pair (a per-pair memo held ~50 MB here)."""
        tracemalloc.start()
        try:
            net = build_fattree(k=16)
            gc.collect()
            built = tracemalloc.get_traced_memory()[0]
            hosts = net.host_names
            rng = random.Random(1)
            pairs = []
            while len(pairs) < 10_240:
                pairs.extend(zip(hosts, random_derangement(hosts, rng)))
            selector = DistinctPathSelector(random.Random(2))
            chosen = [
                selector.select(net.paths(src, dst), flow, 2)
                for flow, (src, dst) in enumerate(pairs[:10_240])
            ]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - built
        finally:
            tracemalloc.stop()
        assert len(chosen) == 10_240
        assert retained < 10 * 2**20, retained

    def test_truncation_matches_generic(self):
        net = build_fattree(k=8)
        src, dst = "h_0_0_0", "h_1_0_0"
        constructed = net._construct_paths(src, dst, 5)
        generic = Network.paths(net, src, dst, 5)
        assert len(constructed) == 5
        assert constructed == generic

    def test_path_counts(self):
        net = build_fattree(k=4)
        assert len(net.paths("h_0_0_0", "h_0_0_1")) == 1   # inner-rack
        assert len(net.paths("h_0_0_0", "h_0_1_0")) == 2   # inter-rack
        assert len(net.paths("h_0_0_0", "h_1_0_0")) == 4   # inter-pod
        assert net.paths("h_0_0_0", "h_0_0_0") == [()]

    def test_switch_pairs_fall_back_to_generic(self):
        net = build_fattree(k=4)
        # Switch endpoints are not hosts; Network.paths handles hosts
        # only, so just pin that the fast path declines them.
        assert net._construct_paths("edge_0_0", "edge_0_1", 64) is None


# ----------------------------------------------------------------------
# Runner + telemetry backend plumbing
# ----------------------------------------------------------------------


class TestBackendPlumbing:
    def test_backend_of(self):
        from repro.runner.registry import (
            BACKEND_FLUID,
            BACKEND_PACKET,
            backend_of,
        )

        assert backend_of("fluid") == BACKEND_FLUID
        assert backend_of("fattree") == BACKEND_PACKET
        assert backend_of("fig1") == BACKEND_PACKET
        with pytest.raises(KeyError):
            backend_of("nope")

    def test_run_record_carries_backend(self):
        from repro.obs.records import TELEMETRY_SCHEMA, run_record
        from repro.runner.registry import execute
        from repro.runner.spec import RunSpec

        result = execute(RunSpec(
            "fluid", FluidScenario(flows=1, duration=seconds(0.005))
        ))
        record = run_record(result)
        assert record["schema"] == TELEMETRY_SCHEMA
        assert record["backend"] == "fluid"
        assert record["kind"] == "fluid"
        assert record["events"] == result.value.events

    def test_run_record_unknown_kind_defaults_to_packet(self):
        from repro.obs.records import run_record
        from repro.runner.spec import CellMetrics, RunResult, RunSpec

        result = RunResult(
            spec=RunSpec("unregistered-kind", FluidScenario(flows=1)),
            value=None,
            metrics=CellMetrics(),
        )
        assert run_record(result)["backend"] == "packet"

    def test_backend_in_deterministic_view(self):
        from repro.obs.records import deterministic_view, run_record
        from repro.runner.registry import execute
        from repro.runner.spec import RunSpec

        result = execute(RunSpec(
            "fluid", FluidScenario(flows=1, duration=seconds(0.005))
        ))
        view = deterministic_view(run_record(result))
        assert view["backend"] == "fluid"

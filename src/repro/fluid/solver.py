"""Fluid ODE integration over a :class:`~repro.fluid.model.FluidModel`.

One Euler step advances, in this order:

1. **links** — queueing delay ``q/C`` and the logistic marking/loss
   probability of every link (:func:`threshold_marking_probability`);
2. **subflows** — RTT (base + path queueing delay), path marking
   probability ``1 - prod(1 - p_l)``, fluid rate ``x = w/T``;
3. **flows** — the per-flow reductions the scheme's law names in its
   ``flow`` (XMP's ``y_s``/``T_s``; LIA's max w/rtt^2, sum w/rtt and
   sum w);
4. **windows** — the law's drift (:mod:`repro.fluid.laws`), clamped
   at :data:`~repro.fluid.laws.MIN_WINDOW`;
5. **queues** — ``q += dt * (arrivals - C)``, floored at zero,
   with arrivals taken from the pre-update rates (as in
   :func:`integrate_shared_link`).

Two interchangeable solvers implement these semantics, each a generator
of :func:`sample_count` ``(time, windows, rates, queues)`` samples;
:func:`integrate_model` collects them into a :class:`FluidTrajectory`,
:func:`steady_state` folds them into tail means.  Both evaluate the same
drift; each keeps its own link, path and flow arithmetic:

* ``"reference"`` — pure Python, the executable specification; and
* ``"vector"`` — numpy segment reductions over flattened path arrays,
  for the 10^4-10^6-subflow scenarios the reference loop cannot reach.
  Requires numpy (an optional test/bench dependency — the choice is
  explicit in the spec, never auto-detected, so a spec's fingerprint
  always names the float-summation order that produced its result).

The module also holds the two closed-form integrators of Eq. 2 the
backend grew out of — :func:`integrate_single_flow` (one flow against a
marking schedule) and :func:`integrate_shared_link` (N BOS flows on one
marked link: the queue integrates ``sum_i w_i/T_i - C``, never below
zero; every flow sees ``T_i = base_rtt + q/C``; marking is the logistic
knee of :func:`~repro.fluid.laws.threshold_marking_probability`) — so
the packet-level simulator can be validated against the model it was
designed from (``benchmarks/test_ablation_fluid.py`` and the tests).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple

from repro.core.bos import DEFAULT_BETA
from repro.fluid import laws
from repro.fluid.laws import bos_window_ode, threshold_marking_probability
from repro.fluid.model import PACKET_BITS, FluidModel
from repro.metrics.series import TimeSeries, tail_start
from repro.mptcp.coupling import SCHEMES
from repro.sim.units import Seconds

SOLVERS = ("reference", "vector")

#: Default sampling stride of :func:`integrate_shared_link`: one recorded
#: sample per this many Euler steps.  The final step is always recorded
#: regardless of stride, so ``steady_state_*`` tail means never miss the
#: terminal state.
SAMPLE_STRIDE = 16


def step_count(duration: float, dt: float) -> int:
    """Number of Euler steps covering ``duration`` at step ``dt``.

    ``int(duration / dt)`` truncates: ``0.3 / 1e-4`` is
    ``2999.9999999999995`` in binary floating point, so the naive form
    silently drops the last step and shortens the horizon.  Rounding to
    the nearest integer recovers the intended count whenever ``duration``
    is an (exact or nearly exact) multiple of ``dt``; integrators always
    take at least one step.
    """
    if duration <= 0 or dt <= 0:
        raise ValueError("duration and dt must be positive")
    return max(1, int(round(duration / dt)))


def vector_available() -> bool:
    """Whether the numpy-backed ``"vector"`` solver can run here."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


@dataclass
class FluidTrajectory:
    """Sampled state series from one integration.

    ``windows``/``rates`` hold one column per subflow (packets,
    packets/s) and ``queues`` one per link (packets), keyed by index;
    all sampled every ``sample_stride`` steps plus the final step
    unconditionally, so a tail mean never misses the terminal state.
    """

    windows: TimeSeries = field(default_factory=TimeSeries)
    rates: TimeSeries = field(default_factory=TimeSeries)
    queues: TimeSeries = field(default_factory=TimeSeries)
    link_names: Tuple[str, ...] = ()
    steps: int = 0
    dt: float = 0.0
    #: Total state updates performed: steps * (subflows + links) — the
    #: fluid backend's events-processed equivalent.
    state_updates: int = 0

    @classmethod
    def empty(
        cls, num_subflows: int, link_names: Sequence[str], steps: int, dt: float
    ) -> "FluidTrajectory":
        """A trajectory with its columns laid out and no sample yet."""
        return cls(
            windows=TimeSeries(range(num_subflows)),
            rates=TimeSeries(range(num_subflows)),
            queues=TimeSeries(range(len(link_names))),
            link_names=tuple(link_names),
            steps=steps,
            dt=dt,
            state_updates=steps * (num_subflows + len(link_names)),
        )

    @property
    def times(self) -> Sequence[float]:
        """The sample instants (shared by all three series)."""
        return self.queues.times

    def record(self, time: float, windows, rates, queues) -> None:
        """Append one sample of the whole state."""
        self.windows.append(time, windows)
        self.rates.append(time, rates)
        self.queues.append(time, queues)

    def steady_state_windows(self, tail_fraction: float = 0.3) -> List[float]:
        """Per-subflow tail-mean window, packets."""
        return _tail_means(self.windows, tail_fraction)

    def steady_state_rates(self, tail_fraction: float = 0.3) -> List[float]:
        """Per-subflow tail-mean fluid rate, packets/s."""
        return _tail_means(self.rates, tail_fraction)

    def steady_state_queues(self, tail_fraction: float = 0.3) -> List[float]:
        """Per-link tail-mean queue, packets (parallel to link_names)."""
        return _tail_means(self.queues, tail_fraction)


def _tail_means(series: TimeSeries, tail_fraction: float) -> List[float]:
    return [series.tail_mean(key, tail_fraction) for key in series.columns]


def sample_count(steps: int, sample_stride: int) -> int:
    """Samples in a ``steps``-step integration: every ``sample_stride``-th
    step from step 0, plus the final step when the stride misses it."""
    last = steps - 1
    return last // sample_stride + 1 + (last % sample_stride != 0)


def stream_model(
    model: FluidModel,
    scheme: str,
    duration: Seconds,
    dt: Seconds = 2e-5,
    beta: float = DEFAULT_BETA,
    w0: float = 2.0,
    sample_stride: int = SAMPLE_STRIDE,
    solver: str = "reference",
) -> Iterator[Tuple]:
    """Validate the arguments, then return the solver's sample generator."""
    law = laws.fluid_law(scheme)
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r} (one of {SOLVERS})")
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")
    if not model.subflows:
        raise ValueError("model has no subflows")
    # The scheme's signal picks the knee: ECN's K or the buffer limit.
    ecn = SCHEMES[scheme].ecn
    knees = [
        link.ecn_threshold if ecn else link.drop_threshold for link in model.links
    ]
    integrate = _integrate_vector if solver == "vector" else _integrate_reference
    return integrate(
        model, law, knees, step_count(duration, dt), dt, beta, w0, sample_stride
    )


def integrate_model(
    model: FluidModel,
    scheme: str,
    duration: Seconds,
    dt: Seconds = 2e-5,
    beta: float = DEFAULT_BETA,
    w0: float = 2.0,
    sample_stride: int = SAMPLE_STRIDE,
    solver: str = "reference",
) -> FluidTrajectory:
    """Euler-integrate ``model`` under ``scheme`` for ``duration``."""
    names = [link.name for link in model.links]
    out = FluidTrajectory.empty(len(model.subflows), names, step_count(duration, dt), dt)
    for sample in stream_model(model, scheme, duration, dt, beta, w0, sample_stride, solver):
        out.record(*sample)
    return out


def steady_state(
    samples: Iterable[Tuple], count: int, fraction: float
) -> Tuple[array, array, array]:
    """Windows', rates' and queues' tail means over ``count`` streamed samples.

    Holds one running sum per column and no sample.  The sums start where
    :func:`~repro.metrics.series.tail_start` does and fold left from 0.0,
    so each mean is ``TimeSeries.tail_mean`` of the collected column, bit
    for bit.
    """
    start = tail_start(count, fraction)
    totals: Tuple = (0.0, 0.0, 0.0)
    seen = 0
    for seen, (_, *state) in enumerate(samples, 1):
        if seen > start:
            totals = tuple(map(_fold, totals, state))
    if seen != count:
        raise RuntimeError(f"solver yielded {seen} samples, expected {count}")
    tail = count - start
    windows, rates, queues = (array("d", [t / tail for t in column]) for column in totals)
    return windows, rates, queues


def _fold(total, values):
    """``total + values`` per column, ``total`` starting as the scalar 0.0
    (numpy arrays broadcast it; the reference solver's lists are walked)."""
    if not isinstance(values, list):
        return total + values
    if not isinstance(total, list):
        total = [total] * len(values)
    return [t + v for t, v in zip(total, values)]


#: The reference solver's ``xp`` (a drift's numpy functions as builtins),
#: and the ufunc the vector solver reduces a flow with for each builtin.
_FLOATS = SimpleNamespace(minimum=min, maximum=max)
_UFUNCS = {sum: "add", min: "minimum", max: "maximum"}


def _reference_drift(law, beta, w, p, rtt, x, slices, flow_of, state) -> List[Tuple]:
    """Every subflow's ``(dw, dstate)``: ``law.drift`` called once per
    subflow on floats, each flow's reductions taken by builtins over its
    ``(start, end)`` slice."""
    columns = {"w": w, "rtt": rtt, "x": x}
    reduced = []
    for reduce, term in law.flow:
        values = columns[term] if isinstance(term, str) else list(map(term, w, rtt))
        reduced.append([reduce(values[start:end]) for start, end in slices])
    flows = list(zip(*reduced)) if reduced else [()] * len(slices)
    drift = law.drift
    return [
        drift(_FLOATS, ws, ps, r, xs, flows[f], beta, st)
        for ws, ps, r, xs, f, st in zip(w, p, rtt, x, flow_of, state)
    ]


def _vector_drift(np, law, beta, w, p, rtt, x, flow_offsets, flow_of, state) -> Tuple:
    """``(dw, dstate)`` over whole arrays: ``law.drift`` called once, each
    flow reduction a ``ufunc.reduceat`` over the flows' first-subflow
    offsets, broadcast back through ``flow_of``."""
    columns = {"w": w, "rtt": rtt, "x": x}
    flow = [
        getattr(np, _UFUNCS[reduce]).reduceat(
            columns[term] if isinstance(term, str) else term(w, rtt), flow_offsets
        )[flow_of]
        for reduce, term in law.flow
    ]
    return law.drift(np, w, p, rtt, x, flow, beta, state)


def _integrate_reference(
    model: FluidModel,
    law: laws.FluidLaw,
    knees: List[float],
    steps: int,
    dt: float,
    beta: float,
    w0: float,
    sample_stride: int,
) -> Iterator[Tuple]:
    """The pure-Python executable specification of one Euler step."""
    num_links = len(model.links)
    num_subflows = len(model.subflows)
    caps = [link.capacity_pps for link in model.links]
    paths = [subflow.links for subflow in model.subflows]
    base = [subflow.base_rtt for subflow in model.subflows]
    slices = model.flow_slices()
    flow_of = [subflow.flow for subflow in model.subflows]

    w = [float(w0)] * num_subflows
    q = [0.0] * num_links
    state = [law.state0] * num_subflows
    floor = laws.MIN_WINDOW

    for i in range(steps):
        delay = [queue / cap for queue, cap in zip(q, caps)]
        p_link = [
            threshold_marking_probability(queue, knee, laws.MARKING_WIDTH)
            for queue, knee in zip(q, knees)
        ]
        rtts = [0.0] * num_subflows
        probs = [0.0] * num_subflows
        rates = [0.0] * num_subflows
        arrivals = [0.0] * num_links
        for s in range(num_subflows):
            rtt = base[s]
            survive = 1.0
            for l in paths[s]:
                rtt += delay[l]
                survive *= 1.0 - p_link[l]
            x = w[s] / rtt
            rtts[s] = rtt
            probs[s] = 1.0 - survive
            rates[s] = x
            for l in paths[s]:
                arrivals[l] += x

        drifts = _reference_drift(law, beta, w, probs, rtts, rates, slices, flow_of, state)
        w = [m if (m := ws + dt * dw) > floor else floor for ws, (dw, _) in zip(w, drifts)]
        if law.state0 is not None:
            state = [a + dt * da for a, (_, da) in zip(state, drifts)]

        q = [
            moved if (moved := queue + dt * (arrived - cap)) > 0.0 else 0.0
            for queue, arrived, cap in zip(q, arrivals, caps)
        ]

        if i % sample_stride == 0 or i == steps - 1:
            yield i * dt, w, rates, q


def _integrate_vector(
    model: FluidModel,
    law: laws.FluidLaw,
    knees: List[float],
    steps: int,
    dt: float,
    beta: float,
    w0: float,
    sample_stride: int,
) -> Iterator[Tuple]:
    """numpy mirror of :func:`_integrate_reference` (same semantics).

    Paths are flattened into one link-index array with per-subflow
    segment offsets; per-subflow sums/products and per-flow reductions
    are ``ufunc.reduceat`` calls, and arrivals scatter back with
    ``bincount``.  Float summation *order* differs from the reference
    loop, so trajectories agree only to integration tolerance — which
    is why the spec names the solver explicitly.
    """
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - exercised only without numpy
        raise RuntimeError(
            "the 'vector' fluid solver requires numpy; use solver='reference'"
        ) from None

    num_links = len(model.links)
    num_subflows = len(model.subflows)
    caps = np.array([link.capacity_pps for link in model.links])
    knee = np.array(knees)
    base = np.array([subflow.base_rtt for subflow in model.subflows])
    path_links = np.concatenate(
        [np.asarray(subflow.links, dtype=np.int64) for subflow in model.subflows]
    )
    path_lens = np.array(
        [len(subflow.links) for subflow in model.subflows], dtype=np.int64
    )
    sub_offsets = np.concatenate(([0], np.cumsum(path_lens)[:-1]))
    path_sub = np.repeat(np.arange(num_subflows, dtype=np.int64), path_lens)
    slices = model.flow_slices()
    flow_offsets = np.array([start for start, _ in slices], dtype=np.int64)
    flow_of = np.array([subflow.flow for subflow in model.subflows], dtype=np.int64)

    w = np.full(num_subflows, float(w0))
    q = np.zeros(num_links)
    state = None if law.state0 is None else np.full(num_subflows, law.state0)

    for i in range(steps):
        delay = q / caps
        exponent = (knee - q) / laws.MARKING_WIDTH
        p_link = 1.0 / (1.0 + np.exp(np.minimum(exponent, laws.MAX_EXPONENT, out=exponent)))
        rtt = base + np.add.reduceat(delay[path_links], sub_offsets)
        survive = np.multiply.reduceat(1.0 - p_link[path_links], sub_offsets)
        p = 1.0 - survive
        x = w / rtt

        dw, dstate = _vector_drift(np, law, beta, w, p, rtt, x, flow_offsets, flow_of, state)
        w = np.maximum(w + dt * dw, laws.MIN_WINDOW)
        if state is not None:
            state = state + dt * dstate
        arrivals = np.bincount(path_links, weights=x[path_sub], minlength=num_links)
        q = np.maximum(q + dt * (arrivals - caps), 0.0)

        if i % sample_stride == 0 or i == steps - 1:
            yield i * dt, w, x, q


def integrate_single_flow(
    p_of_t: Callable[[float], float],
    duration: float,
    dt: float = 1e-4,
    w0: float = 1.0,
    delta: float = 1.0,
    beta: float = 4.0,
    rtt: float = 100e-6,
) -> List[float]:
    """Euler-integrate Eq. 2 for one flow against a marking schedule.

    Returns the window trajectory sampled at every step.  At a constant
    ``p`` the trajectory converges to Eq. 3's fixed point
    ``w* = delta*beta*(1-p)/p``.
    """
    steps = step_count(duration, dt)
    w = w0
    trajectory = []
    for i in range(steps):
        t = i * dt
        p = p_of_t(t)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"marking probability out of range: {p}")
        w += dt * bos_window_ode(w, p, delta, beta, rtt)
        w = max(w, 1.0)
        trajectory.append(w)
    return trajectory


def integrate_shared_link(
    num_flows: int,
    capacity_bps: float,
    base_rtt: float,
    threshold: float,
    duration: float,
    dt: float = 2e-5,
    beta: float = 4.0,
    deltas: Sequence[float] = (),
    w0: float = 2.0,
    sample_stride: int = SAMPLE_STRIDE,
) -> FluidTrajectory:
    """N BOS flows sharing one marked link, in the fluid limit.

    Windows follow Eq. 2; the queue integrates excess arrival; RTTs are
    base propagation plus queueing delay; marking follows
    :func:`threshold_marking_probability`.  The trajectory has one
    window/rate column per flow and the one link's queue, sampled every
    ``sample_stride`` steps, plus the final step unconditionally.
    """
    if num_flows < 1:
        raise ValueError("need at least one flow")
    if capacity_bps <= 0 or base_rtt <= 0:
        raise ValueError("capacity and base_rtt must be positive")
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")
    flow_deltas = list(deltas) if deltas else [1.0] * num_flows
    if len(flow_deltas) != num_flows:
        raise ValueError("deltas must match num_flows")

    capacity_pps = capacity_bps / PACKET_BITS
    windows = [w0] * num_flows
    rates = [0.0] * num_flows
    queue = 0.0
    steps = step_count(duration, dt)
    result = FluidTrajectory.empty(num_flows, ["link"], steps, dt)
    for i in range(steps):
        rtt = base_rtt + queue / capacity_pps
        p = threshold_marking_probability(queue, threshold)
        arrival = 0.0
        for f in range(num_flows):
            rates[f] = windows[f] / rtt
            arrival += rates[f]
            windows[f] += dt * bos_window_ode(
                windows[f], p, flow_deltas[f], beta, rtt
            )
            windows[f] = max(windows[f], 1.0)
        queue = max(0.0, queue + dt * (arrival - capacity_pps))
        if i % sample_stride == 0 or i == steps - 1:
            result.record(i * dt, windows, rates, [queue])
    return result


__all__ = [
    "SAMPLE_STRIDE",
    "SOLVERS",
    "FluidTrajectory",
    "integrate_model",
    "integrate_shared_link",
    "integrate_single_flow",
    "sample_count",
    "steady_state",
    "step_count",
    "stream_model",
    "vector_available",
]

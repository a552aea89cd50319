"""Fluid ODE integration over a :class:`~repro.fluid.model.FluidModel`.

One Euler step advances, in this order:

1. **links** — queueing delay ``q/C`` and the logistic marking/loss
   probability of every link (:func:`threshold_marking_probability`);
2. **subflows** — RTT (base + path queueing delay), path marking
   probability ``1 - prod(1 - p_l)``, fluid rate ``x = w/T``;
3. **flows** — the per-flow reductions the scheme's row names in its
   ``flow`` (XMP's ``y_s``/``T_s``; LIA's max w/rtt^2, sum w/rtt and
   sum w);
4. **windows** — the row's drift (:data:`repro.mptcp.coupling.SCHEMES`),
   clamped at :data:`~repro.fluid.laws.MIN_WINDOW`;
5. **queues** — ``q += dt * (arrivals - C)``, floored at zero,
   with arrivals taken from the pre-update rates.

Two interchangeable solvers implement these semantics, each a generator
of :func:`sample_count` ``(time, windows, rates, queues)`` samples;
:func:`integrate_model` collects them into a :class:`FluidTrajectory`,
:func:`steady_state` folds them into tail means.  Both evaluate the same
drift; each keeps its own link, path and flow arithmetic:

* ``"reference"`` — pure Python, the executable specification; and
* ``"vector"`` — numpy over a padded (subflows x width) hop matrix,
  for the 10^4-10^6-subflow scenarios the reference loop cannot reach.
  Requires numpy (an optional test/bench dependency — the choice is
  explicit in the spec, never auto-detected, so a spec's fingerprint
  always names the float-summation order that produced its result).

Paper Eq. 2 for N flows on one marked link is the ``bos-uncoupled`` law
on a ``bottleneck`` model; :mod:`repro.fluid.crosscheck` validates the
packet simulator against this backend.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.core.bos import DEFAULT_BETA
from repro.fluid import laws
from repro.fluid.laws import threshold_marking_probability
from repro.fluid.model import FluidModel
from repro.metrics.series import TimeSeries, tail_start
from repro.mptcp.coupling import FLOATS, Scheme
from repro.sim.units import Seconds

SOLVERS = ("reference", "vector")

#: Default sampling stride of the solvers: one recorded sample per this
#: many Euler steps.  The final step is always recorded regardless of
#: stride, so tail means never miss the terminal state.
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
    if not model.flow_of:
        raise ValueError("model has no subflows")
    # The scheme's signal picks the knee: ECN's K or the buffer limit.
    knees = model.ecn_threshold if law.ecn else model.drop_threshold
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
    out = FluidTrajectory.empty(
        len(model.flow_of), model.link_names, step_count(duration, dt), dt
    )
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


#: The ufunc the vector solver reduces a flow with for each builtin.
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
        drift(FLOATS, ws, ps, r, xs, flows[f], beta, st)
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
    law: Scheme,
    knees: array,
    steps: int,
    dt: float,
    beta: float,
    w0: float,
    sample_stride: int,
) -> Iterator[Tuple]:
    """The pure-Python executable specification of one Euler step."""
    num_links = len(model.link_names)
    num_subflows = len(model.flow_of)
    caps = model.capacity_pps.tolist()
    starts = model.path_start
    paths = [model.path_links[start:end].tolist() for start, end in zip(starts, starts[1:])]
    base = model.base_rtt.tolist()
    flow_of = model.flow_of.tolist()
    bounds = [bisect_left(flow_of, flow) for flow in range(model.num_flows + 1)]
    slices = list(zip(bounds, bounds[1:]))

    w = [float(w0)] * num_subflows
    q = [0.0] * num_links
    state = [law.state0] * num_subflows
    floor = laws.MIN_WINDOW

    for i in range(steps):
        delay = [queue / cap for queue, cap in zip(q, caps)]
        p_link = [
            threshold_marking_probability(queue, knee) for queue, knee in zip(q, knees)
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


def _hop_sum(columns, out):
    """The hop matrix's row sums, from its (at least two) column views, as
    ``np.add.reduceat`` sums a segment of at most 8: it seeds with ``a0``
    and adds the rest's pairwise sum, a left fold below 8 elements, so
    ``a0 + ((((a1 + a2) + a3) + a4) + a5)``.  Past width 8 reduceat turns
    pairwise and the two differ in the last bits; no path here exceeds 6 hops.
    """
    out[:] = columns[1]
    for column in columns[2:]:
        out += column
    out += columns[0]
    return out


def _hop_product(columns, out):
    """The hop matrix's row products, left to right: the order
    ``np.multiply.reduceat`` folds a segment in at any width."""
    out[:] = columns[0]
    for column in columns[1:]:
        out *= column
    return out


def _integrate_vector(
    model: FluidModel,
    law: Scheme,
    knees: array,
    steps: int,
    dt: float,
    beta: float,
    w0: float,
    sample_stride: int,
) -> Iterator[Tuple]:
    """numpy mirror of :func:`_integrate_reference` (same semantics).

    The model's columns are wrapped, not copied.  Paths become a
    (subflows x width >= 2) hop matrix padded with a sentinel link of
    delay 0 and survival 1.  Each step gathers through it into one
    preallocated buffer and folds the rows (:func:`_hop_sum`,
    :func:`_hop_product`); ``bincount`` over the row-major matrix adds
    each link's rates in subflow order.  Float summation *order* differs
    from the reference loop, so trajectories agree only to integration
    tolerance — which is why the spec names the solver explicitly.
    """
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - exercised only without numpy
        raise RuntimeError(
            "the 'vector' fluid solver requires numpy; use solver='reference'"
        ) from None

    num_links = len(model.link_names)
    num_subflows = len(model.flow_of)
    caps = np.frombuffer(model.capacity_pps)
    knee = np.frombuffer(knees)
    base = np.frombuffer(model.base_rtt)
    flow_of = np.frombuffer(model.flow_of, dtype=np.int64)
    flow_offsets = np.searchsorted(flow_of, np.arange(model.num_flows))
    path_lens = np.diff(np.frombuffer(model.path_start, dtype=np.int64))
    hops = np.full((num_subflows, max(2, path_lens.max())), num_links, dtype=np.int64)
    hops[np.arange(hops.shape[1]) < path_lens[:, None]] = model.path_links

    # What the hops gather: one entry per link, the sentinel link last.
    # Every hop index is in range, so the gathers use mode="wrap": under
    # the default "raise", np.take buffers ``out`` instead of filling it.
    delay = np.zeros(num_links + 1)
    survival = np.ones(num_links + 1)
    link_delay, link_survival = delay[:-1], survival[:-1]
    hop_values = np.empty(hops.shape)
    columns = [hop_values[:, hop] for hop in range(hops.shape[1])]
    path_value = np.empty(num_subflows)
    hop_links = hops.ravel()

    w = np.full(num_subflows, float(w0))
    q = np.zeros(num_links)
    state = None if law.state0 is None else np.full(num_subflows, law.state0)

    for i in range(steps):
        np.divide(q, caps, out=link_delay)
        exponent = (knee - q) / laws.MARKING_WIDTH
        p_link = 1.0 / (1.0 + np.exp(np.minimum(exponent, laws.MAX_EXPONENT, out=exponent)))
        np.subtract(1.0, p_link, out=link_survival)
        np.take(delay, hops, out=hop_values, mode="wrap")
        rtt = base + _hop_sum(columns, path_value)
        np.take(survival, hops, out=hop_values, mode="wrap")
        p = 1.0 - _hop_product(columns, path_value)
        x = w / rtt

        dw, dstate = _vector_drift(np, law, beta, w, p, rtt, x, flow_offsets, flow_of, state)
        w = np.maximum(w + dt * dw, laws.MIN_WINDOW)
        if state is not None:
            state = state + dt * dstate
        hop_values[:] = x[:, None]
        arrivals = np.bincount(
            hop_links, weights=hop_values.ravel(), minlength=num_links + 1
        )[:num_links]
        q = np.maximum(q + dt * (arrivals - caps), 0.0)

        if i % sample_stride == 0 or i == steps - 1:
            yield i * dt, w, x, q


__all__ = [
    "SAMPLE_STRIDE",
    "SOLVERS",
    "FluidTrajectory",
    "integrate_model",
    "sample_count",
    "steady_state",
    "step_count",
    "stream_model",
    "vector_available",
]

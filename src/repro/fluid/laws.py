"""Per-scheme fluid window laws, shared with the packet-level controllers.

:data:`FLUID_LAWS` is the fluid column of the scheme table
(:data:`repro.mptcp.coupling.SCHEMES`): one :class:`FluidLaw` per scheme
that has a fluid form, keyed by the table's names (it lives here so that
``repro.mptcp`` imports nothing from ``repro.fluid``).  Each law is the
fluid (per-second drift) form of a packet-level scheme, built from the
*same* pure formulas the packet controllers use:

* ``xmp`` — Eq. 2's BOS ODE (:func:`bos_window_ode`) with delta from
  TraSh's Eq. 9 (:func:`repro.core.trash.trash_delta`);
* ``bos-uncoupled`` — Eq. 2 with delta = 1;
* ``lia`` — RFC 6356's linked increase with alpha from
  :func:`repro.mptcp.lia.lia_alpha` and the Reno halving as drift;
* ``dctcp`` — per-ACK increase 1/w plus the alpha-proportional cut,
  with the marked-fraction EWMA (gain
  :data:`repro.transport.dctcp.DEFAULT_GAIN`) itself integrated as an
  ODE.

Each law's ``reference`` step is the executable semantics; its ``vector``
function mirrors it with numpy (handed in by the solver — this module
never imports it) and is pinned to it by an equality test
(``tests/test_fluid_backend.py``).  Which knee a scheme's marking
probability sits at — ECN's K or the buffer limit — is the table's
``ecn`` column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.trash import trash_delta
from repro.mptcp.coupling import SCHEMES
from repro.mptcp.lia import lia_alpha
from repro.sim.units import Seconds
from repro.transport.dctcp import DEFAULT_GAIN

#: Window floor in packets — matches the packet engine's one-segment
#: minimum and the core integrators' clamp.
MIN_WINDOW = 1.0

#: Width (packets) of the logistic marking knee, the default of
#: :func:`threshold_marking_probability`.
MARKING_WIDTH = 2.0


def bos_window_ode(
    w: float, p: float, delta: float, beta: float, rtt: float
) -> float:
    """Right-hand side of Eq. 2: dw/dt given marking probability ``p``."""
    if rtt <= 0:
        raise ValueError(f"rtt must be positive, got {rtt}")
    return (delta / rtt) * (1.0 - p) - (w / (rtt * beta)) * p


def threshold_marking_probability(
    queue_packets: float, threshold: float, width: float = MARKING_WIDTH
) -> float:
    """Smooth stand-in for 'at least one mark this round' near a K-queue.

    Below ``K`` the instantaneous queue rarely crosses the threshold
    within a round; above it, almost every round sees a mark.  A logistic
    of width ~2 packets reproduces that knife edge while keeping the ODE
    well behaved.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return 1.0 / (1.0 + math.exp(-(queue_packets - threshold) / width))


def lia_window_drift(
    w: float, p: float, rtt: Seconds, alpha: float, flow_total_window: float
) -> float:
    """LIA: linked increase per ACK, Reno halving at the loss rate.

    Per-ACK increase ``min(alpha/w_total, 1/w)`` times the ACK rate
    ``x(1-p)``, minus the halving ``w/2`` at the per-round loss rate
    ``x p`` — with the packet side's fallback to the uncoupled ``1/w``
    increase while alpha is unmeasurable.
    """
    x = w / rtt
    own = 1.0 / max(w, 1.0)
    if alpha > 0.0 and flow_total_window > 0.0:
        increase = min(alpha / flow_total_window, own)
    else:
        increase = own
    return x * (1.0 - p) * increase - x * p * (w / 2.0)


def dctcp_window_drift(
    w: float, p: float, rtt: Seconds, alpha: float
) -> float:
    """DCTCP: additive increase, alpha-proportional cut at the mark rate."""
    return (1.0 - p) / rtt - (w * alpha / 2.0) * (p / rtt)


def dctcp_alpha_drift(
    alpha: float, p: float, rtt: Seconds, gain: float = DEFAULT_GAIN
) -> float:
    """DCTCP's marked-fraction EWMA as an ODE: one gain step per RTT."""
    return gain * (p - alpha) / rtt


# ----------------------------------------------------------------------
# One Euler step of every subflow's window, per scheme and per solver.
# ``reference(dt, beta, w, p, rtt, x, slices, state)`` updates the lists
# ``w`` (and ``state``) in place, flow by flow over the ``(start, end)``
# subflow ``slices``; ``vector(np, dt, beta, w, p, rtt, x, flow_offsets,
# flow_of, state)`` returns ``(dw, state)`` over whole numpy arrays, its
# per-flow reductions being ``reduceat`` over the flows' first-subflow
# offsets broadcast back through ``flow_of``.
# ----------------------------------------------------------------------


def _xmp_reference(dt, beta, w, p, rtt, x, slices, state):
    """XMP: Eq. 2 with TraSh's delta (Eq. 9) from the flow's total rate
    ``y_s`` (packets/s) and minimum subflow RTT ``T_s``."""
    for start, end in slices:
        y = sum(x[start:end])
        t_min = min(rtt[start:end])
        for s in range(start, end):
            delta = trash_delta(w[s], y, t_min)
            w[s] += dt * bos_window_ode(w[s], p[s], delta, beta, rtt[s])


def _xmp_vector(np, dt, beta, w, p, rtt, x, flow_offsets, flow_of, state):
    y = np.add.reduceat(x, flow_offsets)[flow_of]
    t_min = np.minimum.reduceat(rtt, flow_offsets)[flow_of]
    # Eq. 9 with cwnd = x * rtt: repro.core.trash.trash_delta.
    delta = w / (y * t_min)
    return (delta * (1.0 - p) - w * p / beta) / rtt, state


def _bos_reference(dt, beta, w, p, rtt, x, slices, state):
    """Uncoupled BOS: Eq. 2 with delta = 1."""
    for s in range(len(w)):
        w[s] += dt * bos_window_ode(w[s], p[s], 1.0, beta, rtt[s])


def _bos_vector(np, dt, beta, w, p, rtt, x, flow_offsets, flow_of, state):
    return ((1.0 - p) - w * p / beta) / rtt, state


def _lia_reference(dt, beta, w, p, rtt, x, slices, state):
    for start, end in slices:
        flow_alpha = lia_alpha(w[start:end], rtt[start:end])
        total = sum(w[start:end])
        for s in range(start, end):
            w[s] += dt * lia_window_drift(w[s], p[s], rtt[s], flow_alpha, total)


def _lia_vector(np, dt, beta, w, p, rtt, x, flow_offsets, flow_of, state):
    numerator = np.maximum.reduceat(w / (rtt * rtt), flow_offsets)
    denominator = np.add.reduceat(w / rtt, flow_offsets)
    total = np.add.reduceat(w, flow_offsets)
    flow_alpha = total * numerator / (denominator * denominator)
    own = 1.0 / np.maximum(w, 1.0)
    increase = np.minimum(flow_alpha[flow_of] / total[flow_of], own)
    return x * ((1.0 - p) * increase - p * (w / 2.0)), state


def _dctcp_reference(dt, beta, w, p, rtt, x, slices, state):
    for s in range(len(w)):
        w[s] += dt * dctcp_window_drift(w[s], p[s], rtt[s], state[s])
        state[s] += dt * dctcp_alpha_drift(state[s], p[s], rtt[s])


def _dctcp_vector(np, dt, beta, w, p, rtt, x, flow_offsets, flow_of, state):
    dw = ((1.0 - p) - (w * state / 2.0) * p) / rtt
    return dw, state + dt * DEFAULT_GAIN * (p - state) / rtt


@dataclass(frozen=True)
class FluidLaw:
    """The fluid column of one scheme row: its window step in both solvers."""

    reference: Callable[..., None]
    vector: Callable[..., Tuple[Any, Any]]
    #: Initial value of the extra per-subflow state integrated beside the
    #: window (DCTCP's alpha); ``None`` when the law has none.
    state0: Optional[float] = None


#: Scheme name -> fluid law, for the rows of
#: :data:`~repro.mptcp.coupling.SCHEMES` that have one.
FLUID_LAWS: Dict[str, FluidLaw] = {
    "xmp": FluidLaw(_xmp_reference, _xmp_vector),
    "bos-uncoupled": FluidLaw(_bos_reference, _bos_vector),
    "lia": FluidLaw(_lia_reference, _lia_vector),
    "dctcp": FluidLaw(_dctcp_reference, _dctcp_vector, state0=1.0),
}

#: Scheme names accepted by the fluid backend, in the table's order.
FLUID_SCHEMES = tuple(name for name in SCHEMES if name in FLUID_LAWS)


def fluid_law(scheme: str) -> FluidLaw:
    """The fluid law of ``scheme``; ``ValueError`` when the row has none."""
    law = FLUID_LAWS.get(scheme)
    if law is None:
        raise ValueError(
            f"scheme {scheme!r} has no fluid law (one of {', '.join(FLUID_SCHEMES)})"
        )
    return law


def render_scheme_table() -> str:
    """The markdown scheme table embedded in DESIGN.md §2.

    ``tests/test_scheme_table.py`` pins the document copy to this output.
    """
    lines = [
        "| scheme | window law | coupling | signal | echo | fluid law |",
        "|---|---|---|---|---|---|",
    ]
    for row in SCHEMES.values():
        signal = "ECN at K" if row.ecn else "loss"
        fluid = "yes" if row.name in FLUID_LAWS else "no"
        lines.append(
            f"| `{row.name}` | {row.law} | {row.coupling} | {signal} "
            f"| {row.echo.value} | {fluid} |"
        )
    return "\n".join(lines)


__all__ = [
    "FLUID_LAWS",
    "FLUID_SCHEMES",
    "FluidLaw",
    "MARKING_WIDTH",
    "MIN_WINDOW",
    "bos_window_ode",
    "dctcp_alpha_drift",
    "dctcp_window_drift",
    "fluid_law",
    "lia_alpha",
    "lia_window_drift",
    "render_scheme_table",
    "threshold_marking_probability",
]

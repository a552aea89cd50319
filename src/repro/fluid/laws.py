"""Per-scheme fluid window laws, shared with the packet-level controllers.

:data:`FLUID_LAWS` is the fluid column of the scheme table
(:data:`repro.mptcp.coupling.SCHEMES`): one :class:`FluidLaw` per scheme
that has a fluid form, keyed by the table's names (it lives here so that
``repro.mptcp`` imports nothing from ``repro.fluid``).  A law has the
shape Peng, Walid, Hwang & Low give an MP-TCP algorithm: a per-flow
coupling (the reductions over its subflows it reads) and a per-subflow
drift, one elementwise expression both solvers evaluate.  The drifts call
the *same* one-expression formulas the packet controllers and the
closed-form integrators call:

* ``xmp`` — Eq. 2 (:func:`bos_drift`) with delta from TraSh's Eq. 9
  (:func:`repro.core.trash.coupled_delta`) over the flow's total rate
  and minimum RTT;
* ``bos-uncoupled`` — Eq. 2 with delta = 1;
* ``lia`` — RFC 6356's linked increase with alpha from
  :func:`repro.mptcp.lia.linked_alpha` and the Reno halving as drift;
* ``dctcp`` — per-ACK increase 1/w plus the alpha-proportional cut,
  with the marked-fraction EWMA (gain
  :data:`repro.transport.dctcp.DEFAULT_GAIN`) integrated as its state.

``tests/test_fluid_backend.py`` pins the two solvers' evaluations equal
with ``==``.  Which knee a scheme's marking probability sits at — ECN's
K or the buffer limit — is the table's ``ecn`` column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.trash import coupled_delta
from repro.mptcp.coupling import SCHEMES
from repro.mptcp.lia import linked_alpha
from repro.transport.dctcp import DEFAULT_GAIN

#: Window floor in packets — matches the packet engine's one-segment
#: minimum and the core integrators' clamp.
MIN_WINDOW = 1.0

#: Width (packets) of the logistic marking knee, the default of
#: :func:`threshold_marking_probability`.
MARKING_WIDTH = 2.0

#: Cap on the marking knee's exponent: ``exp(709)`` (~8.2e307) still fits
#: a double, so a queue far below its knee reads a probability of
#: ~1e-308 instead of overflowing.  Every exponent below the cap keeps
#: its bits.
MAX_EXPONENT = 709.0


def bos_drift(w, p, delta, beta, rtt):
    """Right-hand side of Eq. 2 as one expression: dw/dt given marking
    probability ``p``, elementwise on floats or numpy arrays."""
    return (delta * (1.0 - p) - w * p / beta) / rtt


def bos_window_ode(
    w: float, p: float, delta: float, beta: float, rtt: float
) -> float:
    """:func:`bos_drift` for one window, with its RTT checked."""
    if rtt <= 0:
        raise ValueError(f"rtt must be positive, got {rtt}")
    return bos_drift(w, p, delta, beta, rtt)


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
    exponent = (threshold - queue_packets) / width
    return 1.0 / (1.0 + math.exp(exponent if exponent < MAX_EXPONENT else MAX_EXPONENT))


@dataclass(frozen=True)
class FluidLaw:
    """The fluid column of one scheme row.

    ``drift(xp, w, p, rtt, x, flow, beta, state) -> (dw, dstate)`` is one
    elementwise expression of a subflow's window, marking probability,
    RTT and rate ``x = w/rtt``, ``flow`` holding its flow's reductions.
    The reference solver calls it per subflow on floats, the vector
    solver once on numpy arrays; ``xp`` supplies ``minimum``/``maximum``.
    """

    drift: Callable[..., Tuple[Any, Any]]
    #: The per-flow reductions the coupling reads, as ``(reduction,
    #: term)`` pairs: the builtin ``sum``, ``min`` or ``max`` of a column
    #: (``"w"``, ``"rtt"``, ``"x"``) or of an elementwise ``term(w, rtt)``.
    flow: Tuple[Tuple[Callable[..., Any], Any], ...] = ()
    #: Initial value of the per-subflow state integrated beside the window
    #: (DCTCP's alpha, drifting at ``dstate``); ``None`` when there is none.
    state0: Optional[float] = None


def _xmp(xp, w, p, rtt, x, flow, beta, state):
    # Eq. 9's delta from the flow's y_s (packets/s) and T_s, with cwnd = w.
    total_rate, min_rtt = flow
    return bos_drift(w, p, coupled_delta(w, total_rate, min_rtt), beta, rtt), state


def _bos_uncoupled(xp, w, p, rtt, x, flow, beta, state):
    return bos_drift(w, p, 1.0, beta, rtt), state


def _lia(xp, w, p, rtt, x, flow, beta, state):
    # Per-ACK increase min(alpha/w_total, 1/w) at the ACK rate x(1-p),
    # the Reno halving w/2 at the loss rate x p.
    peak, rate_sum, total = flow
    own = 1.0 / xp.maximum(w, 1.0)
    increase = xp.minimum(linked_alpha(total, peak, rate_sum) / total, own)
    return x * ((1.0 - p) * increase - p * (w / 2.0)), state


def _dctcp(xp, w, p, rtt, x, flow, beta, alpha):
    # Additive increase, the alpha-proportional cut at the mark rate, and
    # the marked-fraction EWMA as an ODE: one gain step per RTT.
    return ((1.0 - p) - (w * alpha / 2.0) * p) / rtt, DEFAULT_GAIN * (p - alpha) / rtt


#: Scheme name -> fluid law, for the rows of
#: :data:`~repro.mptcp.coupling.SCHEMES` that have one.
FLUID_LAWS: Dict[str, FluidLaw] = {
    "xmp": FluidLaw(_xmp, flow=((sum, "x"), (min, "rtt"))),
    "bos-uncoupled": FluidLaw(_bos_uncoupled),
    "lia": FluidLaw(_lia, flow=((max, lambda w, rtt: w / (rtt * rtt)), (sum, "x"), (sum, "w"))),
    "dctcp": FluidLaw(_dctcp, state0=1.0),
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
    "MAX_EXPONENT",
    "MIN_WINDOW",
    "bos_drift",
    "bos_window_ode",
    "fluid_law",
    "render_scheme_table",
    "threshold_marking_probability",
]

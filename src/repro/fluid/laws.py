"""Per-scheme fluid window laws, shared with the packet-level controllers.

Each law is the fluid (per-second drift) form of a packet-level scheme,
built from the *same* pure formulas the packet controllers use:

* ``xmp`` — Eq. 2's BOS ODE (:func:`bos_window_ode`) with delta from
  TraSh's Eq. 9 (:func:`repro.core.trash.trash_delta`);
* ``bos-uncoupled`` — Eq. 2 with delta = 1;
* ``lia`` — RFC 6356's linked increase with alpha from
  :func:`repro.mptcp.lia.lia_alpha` and the Reno halving as drift;
* ``dctcp`` — per-ACK increase 1/w plus the alpha-proportional cut,
  with the marked-fraction EWMA (gain
  :data:`repro.transport.dctcp.DEFAULT_GAIN`) itself integrated as an
  ODE.

The scalar functions here are the reference semantics; the vector
solver in :mod:`repro.fluid.solver` mirrors them with numpy and is
pinned to them by an equality test (``tests/test_fluid_backend.py``).
"""

from __future__ import annotations

import math

from repro.core.bos import DEFAULT_BETA
from repro.core.trash import trash_delta
from repro.mptcp.lia import lia_alpha
from repro.sim.units import Seconds
from repro.transport.dctcp import DEFAULT_GAIN

#: Scheme names accepted by the fluid backend (packet-registry spelling,
#: see :func:`repro.mptcp.coupling.create_coupling`).
FLUID_SCHEMES = ("xmp", "bos-uncoupled", "lia", "dctcp")

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


def scheme_uses_ecn(scheme: str) -> bool:
    """Whether a scheme reacts to the ECN knee K (vs. buffer-full loss)."""
    if scheme not in FLUID_SCHEMES:
        raise ValueError(
            f"unknown fluid scheme {scheme!r} (one of {FLUID_SCHEMES})"
        )
    return scheme != "lia"


def xmp_window_drift(
    w: float,
    p: float,
    rtt: Seconds,
    flow_rate: float,
    flow_min_rtt: Seconds,
    beta: float = DEFAULT_BETA,
) -> float:
    """XMP: Eq. 2 with TraSh's delta (Eq. 9) from the flow aggregates.

    ``flow_rate`` is the flow's total fluid rate in packets/s (the
    paper's ``y_s``) and ``flow_min_rtt`` its minimum subflow RTT
    (``T_s``); both in the same units :func:`trash_delta` expects.
    """
    delta = trash_delta(w, flow_rate, flow_min_rtt)
    return bos_window_ode(w, p, delta, beta, rtt)


def bos_window_drift(
    w: float, p: float, rtt: Seconds, beta: float = DEFAULT_BETA
) -> float:
    """Uncoupled BOS: Eq. 2 with delta = 1."""
    return bos_window_ode(w, p, 1.0, beta, rtt)


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


__all__ = [
    "FLUID_SCHEMES",
    "MARKING_WIDTH",
    "MIN_WINDOW",
    "bos_window_drift",
    "bos_window_ode",
    "dctcp_alpha_drift",
    "dctcp_window_drift",
    "lia_alpha",
    "lia_window_drift",
    "scheme_uses_ecn",
    "threshold_marking_probability",
    "xmp_window_drift",
]

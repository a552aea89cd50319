"""TraSh — Traffic Shifting (paper §2.2).

TraSh couples the subflows of one MPTCP flow by recomputing each subflow's
growth parameter once per round:

.. math::

    \\delta_{s,r} = \\frac{T_{s,r} \\cdot x_{s,r}}{T_s \\cdot y_s}
                  = \\frac{cwnd_r}{total\\_rate \\cdot min\\_rtt}

(Eq. 9; the second form is Algorithm 1's ``delta[r]``, using
``x_{s,r} = cwnd_r / srtt_r`` so that ``T_{s,r} x_{s,r} = cwnd_r``).

Because :math:`\\delta_{s,r}` shrinks on paths whose share of the total
rate is small relative to their RTT (more congested → smaller window →
smaller rate) and grows on less congested ones, each flow drifts toward
equalizing the congestion it perceives across its paths — the paper's
Congestion Equality Principle (Proposition 1).

This module is the ``xmp`` row of :data:`repro.mptcp.coupling.SCHEMES`:
the flow reductions delta reads (:data:`FLOW`), delta itself as BOS's
per-round increase (:func:`increase`) and XMP's fluid drift
(:func:`drift`, Eq. 2 at that delta).
"""

from __future__ import annotations

from repro.core.bos import bos_drift

#: The flow reductions: ``y_s``, the sum of the subflow rates
#: (``instant_rate``), and ``T_s``, the least RTT.
FLOW = ((sum, "x"), (min, "rtt"))


def coupled_delta(cwnd, total_rate, min_rtt):
    """Eq. 9 / Algorithm 1 as one expression, ``cwnd / (y_s * T_s)``, on
    floats or numpy arrays alike.  ``cwnd`` and ``total_rate`` share a
    size unit (packets with packets/s, or bytes with bytes/s) — delta is
    dimensionless."""
    return cwnd / (total_rate * min_rtt)


def increase(xp, w, flow):
    """BOS's per-round increase under TraSh: delta from the flow's
    ``(y_s, T_s)``."""
    total_rate, min_rtt = flow
    return coupled_delta(w, total_rate, min_rtt)


def drift(xp, w, p, rtt, x, flow, beta, state):
    """XMP's fluid drift: Eq. 2 at Eq. 9's delta."""
    return bos_drift(w, p, increase(xp, w, flow), beta, rtt), state


__all__ = ["FLOW", "coupled_delta", "drift", "increase"]

"""LIA — Linked Increases, MPTCP's default coupled congestion control
(Wischik et al., NSDI 2011; RFC 6356).

Per ACKed segment on subflow r in congestion avoidance:

.. math::

    \\Delta w_r = \\min\\!\\left(\\frac{\\alpha}{w_{total}},
                               \\frac{1}{w_r}\\right),
    \\qquad
    \\alpha = w_{total}
              \\frac{\\max_r (w_r / rtt_r^2)}{(\\sum_r w_r / rtt_r)^2}

Decrease is the Reno halving on loss.  LIA is loss-driven and not
ECN-capable — in the paper's simulations it fills DropTail buffers and
suffers 200 ms RTO recoveries, which is exactly the behaviour Tables 1/3
penalize it for.

This module is the ``lia`` row of :data:`repro.mptcp.coupling.SCHEMES`:
the flow reductions alpha reads (:data:`FLOW`), the per-segment increase
(:func:`increase`) and its fluid drift (:func:`drift`).
"""

from __future__ import annotations

#: The flow reductions: ``max_r w_r/rtt_r^2``, ``sum_r w_r/rtt_r`` (the
#: rate column) and ``w_total``.
FLOW = ((max, lambda w, rtt: w / (rtt * rtt)), (sum, "x"), (sum, "w"))


def linked_alpha(total, peak, rate_sum):
    """RFC 6356's ``alpha = w_total * max_r(w_r/rtt_r^2) / (sum_r
    w_r/rtt_r)^2`` as one expression of those three flow reductions, on
    floats or numpy arrays alike."""
    return total * peak / (rate_sum * rate_sum)


def increase(xp, w, flow):
    """The per-segment increase ``min(alpha/w_total, 1/w_r)``, ``1/w_r``
    taken at a window of at least one segment."""
    peak, rate_sum, total = flow
    return xp.minimum(linked_alpha(total, peak, rate_sum) / total, 1.0 / xp.maximum(w, 1.0))


def drift(xp, w, p, rtt, x, flow, beta, state):
    """The fluid drift: the per-segment increase at the ACK rate
    ``x(1-p)``, the Reno halving ``w/2`` at the loss rate ``x p``."""
    return x * ((1.0 - p) * increase(xp, w, flow) - p * (w / 2.0)), state


__all__ = ["FLOW", "drift", "increase", "linked_alpha"]

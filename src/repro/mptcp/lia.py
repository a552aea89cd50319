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
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.transport.cc import Coupling, RenoCC


def linked_alpha(total, peak, rate_sum):
    """RFC 6356's ``alpha = w_total * max_r(w_r/rtt_r^2) / (sum_r
    w_r/rtt_r)^2`` as one expression of those three flow reductions, on
    floats or numpy arrays alike: :func:`lia_alpha` and the fluid LIA
    drift (:mod:`repro.fluid.laws`) both call it."""
    return total * peak / (rate_sum * rate_sum)


def lia_alpha(
    windows: Sequence[float], rtts: Sequence[Optional[float]]
) -> float:
    """:func:`linked_alpha` over parallel ``windows``/``rtts`` sequences.

    Returns 0.0 when any RTT is unknown or non-positive (the packet
    side's "not measured yet" fallback).
    """
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
    return linked_alpha(total, numerator, denominator)


class LiaCoupling(Coupling):
    """Shared state across the LIA controllers of one MPTCP flow."""

    def _new_controller(self) -> "LiaCC":
        return LiaCC(self)

    def total_cwnd(self) -> float:
        """Sum of windows over active subflows."""
        return sum(sender.cwnd for sender in self.active_senders())

    def alpha(self) -> float:
        """RFC 6356's aggressiveness factor; 0 when RTTs are unknown yet."""
        windows, rtts = [], []
        for sender in self.active_senders():
            windows.append(sender.cwnd)
            rtts.append(sender.srtt)
        return lia_alpha(windows, rtts)


class LiaCC(RenoCC):
    """Per-subflow LIA controller: Reno with the linked increase."""

    def __init__(self, coupling: LiaCoupling) -> None:
        super().__init__(ecn=False)
        self.coupling: Optional[LiaCoupling] = coupling

    def close(self) -> None:
        super().close()
        self.coupling = None

    def increase_per_segment(self, newly_acked: int) -> float:
        sender = self.sender
        coupling = self.coupling
        assert sender is not None and coupling is not None
        own = 1.0 / max(sender.cwnd, 1.0)
        alpha = coupling.alpha()
        if alpha <= 0.0:
            # RTTs not measured yet: fall back to the uncoupled increase.
            return own
        total = coupling.total_cwnd()
        if total <= 0.0:
            return own
        return min(alpha / total, own)


__all__ = ["LiaCoupling", "LiaCC", "lia_alpha", "linked_alpha"]

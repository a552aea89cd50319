"""OLIA — Opportunistic Linked Increases (Khalili et al., CoNEXT 2012).

The paper's §7 notes TraSh may inherit LIA's non-Pareto-optimality and
points at OLIA's fix as future work; we implement it as the extension
baseline.  Per ACKed segment on path r in congestion avoidance:

.. math::

    \\Delta w_r = \\frac{w_r / rtt_r^2}{(\\sum_p w_p / rtt_p)^2}
                  + \\frac{\\alpha_r}{w_r}

where, with ``n`` the number of paths, ``M`` the set of *best* paths
(largest ``l_p^2 / rtt_p``, with ``l_p`` the smoothed data delivered
between losses) and ``B`` the set of largest-window paths:

* ``alpha_r = +1 / (n * |M \\ B|)``  if ``r`` is a best path with a small
  window (push traffic onto it),
* ``alpha_r = -1 / (n * |B|)``      if ``r`` has a maximal window but is
  not best (pull traffic off it), provided ``M \\ B`` is non-empty,
* ``alpha_r = 0`` otherwise.

Decrease is Reno halving on loss; OLIA is loss-driven (not ECN-capable).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.transport.cc import Coupling, RenoCC


class OliaCoupling(Coupling):
    """Shared state across the OLIA controllers of one MPTCP flow."""

    def _new_controller(self) -> "OliaCC":
        return OliaCC(self)

    def rate_denominator(self) -> float:
        """``(sum_p w_p/rtt_p)^2``; 0 while RTTs are unknown."""
        total = 0.0
        for sender in self.active_senders():
            srtt = sender.srtt
            if srtt is None or srtt <= 0:
                return 0.0
            total += sender.cwnd / srtt
        return total * total

    def alphas(self) -> Dict["OliaCC", float]:
        """The per-path ``alpha_r`` assignment described above."""
        active = self.active_senders()
        result: Dict["OliaCC", float] = {sender.cc: 0.0 for sender in active}
        if len(active) < 2:
            return result
        quality = {}
        for sender in active:
            srtt = sender.srtt if sender.srtt else 1.0
            loss_interval = sender.cc.loss_interval()
            quality[sender.cc] = loss_interval * loss_interval / srtt
        best_quality = max(quality.values())
        best: Set["OliaCC"] = {
            c for c, q in quality.items() if q >= best_quality * (1.0 - 1e-9)
        }
        max_window = max(sender.cwnd for sender in active)
        largest: Set["OliaCC"] = {
            sender.cc
            for sender in active
            if sender.cwnd >= max_window * (1.0 - 1e-9)
        }
        best_small = best - largest
        n = len(active)
        if best_small:
            share = 1.0 / (n * len(best_small))
            for controller in best_small:
                result[controller] = share
            penalty = 1.0 / (n * len(largest))
            for controller in largest:
                if controller not in best:
                    result[controller] = -penalty
        return result


class OliaCC(RenoCC):
    """Per-subflow OLIA controller."""

    def __init__(self, coupling: OliaCoupling) -> None:
        super().__init__(ecn=False)
        self.coupling: Optional[OliaCoupling] = coupling
        # l1: segments delivered between the previous two losses;
        # l2: segments delivered since the last loss.
        self._l1 = 0.0
        self._l2 = 0.0

    def loss_interval(self) -> float:
        """``l_r`` — the larger of the two inter-loss transfer estimates."""
        return max(self._l1, self._l2, 1.0)

    def on_ack(self, newly_acked, ece_count, rtt_sample, now, round_ended):
        if newly_acked > 0:
            self._l2 += newly_acked
        super().on_ack(newly_acked, ece_count, rtt_sample, now, round_ended)

    def on_loss_event(self, now: float) -> None:
        self._l1, self._l2 = self._l2, 0.0
        super().on_loss_event(now)

    def on_timeout(self, now: float) -> None:
        self._l1, self._l2 = self._l2, 0.0
        super().on_timeout(now)

    def increase_per_segment(self, newly_acked: int) -> float:
        sender = self.sender
        coupling = self.coupling
        assert sender is not None and coupling is not None
        own = 1.0 / max(sender.cwnd, 1.0)
        denominator = coupling.rate_denominator()
        if denominator <= 0.0:
            return own
        srtt = sender.srtt
        if srtt is None or srtt <= 0:
            return own
        base = (sender.cwnd / (srtt * srtt)) / denominator
        alpha = coupling.alphas().get(self, 0.0)
        increase = base + alpha / max(sender.cwnd, 1.0)
        # OLIA caps the increase at the uncoupled TCP rate and floors the
        # total at zero (a path is never actively shrunk by the increase
        # term).
        return max(0.0, min(increase, own))


__all__ = ["OliaCoupling", "OliaCC"]

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
"""

from __future__ import annotations

from typing import Optional

from repro.core.bos import DEFAULT_BETA, BosCC
from repro.sim.units import Seconds
from repro.transport.cc import Coupling


def coupled_delta(cwnd, total_rate, min_rtt):
    """Eq. 9 / Algorithm 1 as one expression, ``cwnd / (y_s * T_s)``, on
    floats or numpy arrays alike: the packet-level :func:`trash_delta`
    and the fluid XMP drift (:mod:`repro.fluid.laws`) both call it.
    ``cwnd`` and ``total_rate`` share a size unit (packets with packets/s,
    or bytes with bytes/s) — delta is dimensionless."""
    return cwnd / (total_rate * min_rtt)


def trash_delta(cwnd: float, total_rate: float, min_rtt: Seconds) -> float:
    """:func:`coupled_delta`, falling back to the uncoupled 1.0 until both
    flow quantities are measurable."""
    if total_rate <= 0.0 or min_rtt <= 0.0:
        return 1.0
    return coupled_delta(cwnd, total_rate, min_rtt)


class TraSh(Coupling):
    """The coupling state shared by all subflows of one XMP flow.

    Every controller it hands out is a BOS law with reduction factor
    ``beta`` whose delta this instance tunes.
    """

    def __init__(self, beta: float = DEFAULT_BETA) -> None:
        super().__init__()
        self.beta = beta

    def _new_controller(self) -> BosCC:
        return BosCC(beta=self.beta, delta_provider=self.delta)

    def total_rate(self) -> float:
        """Sum of ``instant_rate`` over the active subflows."""
        total = 0.0
        for sender in self.active_senders():
            total += sender.instant_rate
        return total

    def min_rtt(self) -> Optional[float]:
        """``min{srtt_r}`` over active subflows (the paper's ``T_s``)."""
        best: Optional[float] = None
        for sender in self.active_senders():
            srtt = sender.srtt
            if srtt is not None and srtt > 0 and (best is None or srtt < best):
                best = srtt
        return best

    def delta(self, controller: BosCC, now: float) -> float:
        """Eq. 9 / Algorithm 1: ``delta[r] = cwnd[r] / (total_rate * min_rtt)``.

        Falls back to the uncoupled value 1.0 until every quantity is
        measurable (TraSh initialization step 1 sets ``delta = 1``).
        """
        sender = controller.sender
        if sender is None:
            return 1.0
        total = self.total_rate()
        min_rtt = self.min_rtt()
        if min_rtt is None:
            return 1.0
        return trash_delta(sender.cwnd, total, min_rtt)


__all__ = ["TraSh", "coupled_delta", "trash_delta"]

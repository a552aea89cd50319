"""BOS — Buffer Occupancy Suppression (paper §2.1, Algorithm 1).

BOS is the per-subflow window law of XMP:

* **Slow start** — grow by one segment per clean ACK; the first ACK
  carrying ECN echo ends slow start.
* **Congestion avoidance** — grow by ``delta`` once per *round* (one
  smoothed RTT, delimited by ``beg_seq``), accumulated through a
  fractional ``adder`` so non-integer deltas average out correctly.
* **Decrease** — on ECN echo, cut ``cwnd`` by a factor ``1/beta`` at most
  once per round (the Fig. 2 NORMAL/REDUCED machine), never below 2
  segments, and pin ``ssthresh = cwnd - 1`` so slow start is not
  re-entered.

Standalone BOS uses ``delta = 1`` and is exactly the "halving cwnd with a
constant factor" scheme of Fig. 1 when ``beta = 2``.  Under XMP,
:class:`~repro.core.trash.TraSh` supplies ``delta`` per round (Eq. 9),
which is what couples the subflows.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.transport.cc import MIN_CWND, NORMAL, CongestionControl
from repro.transport.receiver import EchoMode

#: The paper's recommended reduction factor for 1 Gbps DCN links (§2.1).
DEFAULT_BETA = 4

DeltaProvider = Callable[["BosCC", float], float]


class BosCC(CongestionControl):
    """The BOS window law, optionally coupled through a delta provider."""

    ecn_capable = True
    echo_mode = EchoMode.XMP

    def __init__(
        self,
        beta: float = DEFAULT_BETA,
        delta_provider: Optional[DeltaProvider] = None,
    ) -> None:
        super().__init__()
        if beta < 2:
            raise ValueError(
                f"beta must be >= 2 (Eq. 1 requires it), got {beta}"
            )
        self.beta = float(beta)
        self.delta_provider = delta_provider
        #: Fractional-increase accumulator (``adder`` in Algorithm 1).
        self.adder = 0.0
        #: Growth parameter applied last round (1.0 until coupled).
        self.delta = 1.0
        self.reductions = 0

    def close(self) -> None:
        super().close()
        self.delta_provider = None

    # ------------------------------------------------------------------

    def on_ack(
        self,
        newly_acked: int,
        ece_count: int,
        rtt_sample: Optional[float],
        now: float,
        round_ended: bool,
    ) -> None:
        sender = self.sender
        assert sender is not None

        # Leave REDUCED as soon as snd_una passes cwr_seq (the paper's
        # condition is on snd_una, which the sender updated before calling
        # us) — an ECE on this very ACK then belongs to the new round.
        self.update_cwr_state(sender.snd_una)

        # "At receiving ECE or CWR": reduce once per round.
        if ece_count > 0 and self.state == NORMAL:
            self._reduce()

        # Per-round operations: recompute delta and apply the CA increase.
        if round_ended:
            if self.delta_provider is not None:
                self.delta = self.delta_provider(self, now)
            grown = 0
            if self.state == NORMAL and sender.cwnd > sender.ssthresh:
                self.adder += self.delta
                whole = math.floor(self.adder)
                if whole > 0:
                    sender.cwnd += whole
                    self.adder -= whole
                    grown = whole
            if self.observer is not None:
                self.observer.on_round(self, self.delta, grown)

        # Per-ACK operations: slow start.
        if (
            newly_acked > 0
            and self.state == NORMAL
            and sender.cwnd <= sender.ssthresh
            and not sender.in_recovery
        ):
            sender.cwnd += 1

    def _reduce(self) -> None:
        """Algorithm 1's ECE/CWR handler body."""
        sender = self.sender
        assert sender is not None
        if not self.enter_reduced():
            return
        self.reductions += 1
        cwnd_before = sender.cwnd
        if sender.cwnd > sender.ssthresh:
            decrement = max(sender.cwnd / self.beta, 1.0)
            sender.cwnd = max(sender.cwnd - decrement, MIN_CWND)
        # "Avoid re-entering slow start" — also how slow start *ends* on the
        # very first echo (cwnd <= ssthresh skips the cut but lands here).
        sender.ssthresh = sender.cwnd - 1.0
        if self.observer is not None:
            self.observer.on_reduce(self, cwnd_before, sender.cwnd)

    def on_timeout(self, now: float) -> None:
        super().on_timeout(now)
        self.adder = 0.0


__all__ = ["BosCC", "DEFAULT_BETA", "DeltaProvider"]

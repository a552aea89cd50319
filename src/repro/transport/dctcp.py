"""DCTCP (Alizadeh et al., SIGCOMM 2010) — the paper's main single-path
baseline.

The sender keeps an EWMA ``alpha`` of the fraction of marked segments per
window and, on receiving ECN echo, cuts ``cwnd`` by ``alpha/2`` at most
once per window.  The receiver side (accurate per-segment mark feedback,
immediate ACK on CE-state change) lives in
:mod:`repro.transport.receiver` under ``EchoMode.DCTCP``.

Losses are handled like Reno (halving), and the slow-start exit happens on
the first echo — with ``alpha`` initialized to 1, that first cut is a
halving, as in the reference implementation.
"""

from __future__ import annotations

from typing import Optional

from repro.transport.cc import MIN_CWND, NORMAL, CongestionControl
from repro.transport.receiver import EchoMode

#: DCTCP's EWMA gain g (the reference implementation's 1/16).
DEFAULT_GAIN = 1.0 / 16.0


def drift(xp, w, p, rtt, x, flow, beta, alpha):
    """The ``dctcp`` row's fluid drift: additive increase, the
    alpha-proportional cut at the mark rate, and the marked-fraction EWMA
    as an ODE — one gain step per RTT — integrated beside the window."""
    return ((1.0 - p) - (w * alpha / 2.0) * p) / rtt, DEFAULT_GAIN * (p - alpha) / rtt


class DctcpCC(CongestionControl):
    """DCTCP congestion control."""

    ecn_capable = True
    echo_mode = EchoMode.DCTCP

    def __init__(self) -> None:
        super().__init__()
        self.alpha = 1.0
        self._acked_window = 0
        self._marked_window = 0
        self.reductions = 0

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
        self.update_cwr_state(sender.snd_una)

        # Accumulate the marked fraction for this observation window.
        self._acked_window += newly_acked
        self._marked_window += min(ece_count, max(newly_acked, 1))
        if round_ended and self._acked_window > 0:
            fraction = min(1.0, self._marked_window / self._acked_window)
            self.alpha += DEFAULT_GAIN * (fraction - self.alpha)
            self._acked_window = 0
            self._marked_window = 0

        # Proportional decrease, once per window.
        if ece_count > 0 and self.state == NORMAL:
            if self.enter_reduced():
                self.reductions += 1
                reduced = sender.cwnd * (1.0 - self.alpha / 2.0)
                sender.cwnd = max(reduced, MIN_CWND)
                sender.ssthresh = sender.cwnd - 1.0
            return

        if newly_acked <= 0 or sender.in_recovery or self.state != NORMAL:
            return
        if self.in_slow_start:
            sender.cwnd += newly_acked
        else:
            sender.cwnd += newly_acked / max(sender.cwnd, 1.0)

    def on_timeout(self, now: float) -> None:
        super().on_timeout(now)
        self._acked_window = 0
        self._marked_window = 0


__all__ = ["DctcpCC", "DEFAULT_GAIN", "drift"]

"""D2TCP — Deadline-Aware Datacenter TCP (Vamanan et al., SIGCOMM 2012).

The paper's related work (§6): "D2TCP uses ECN to make flows with tight
deadlines obtain more bandwidth".  We implement it as an extension
baseline on top of our DCTCP:

The congestion penalty applied on ECN feedback is gamma-corrected by a
*deadline imminence* factor ``d``:

.. math::

    p = \\alpha^{d}, \\qquad cwnd \\leftarrow cwnd \\cdot (1 - p / 2)

where ``d = Tc / D`` — the ratio of the time the flow still *needs*
(remaining data over current rate) to the time it still *has* — clamped
to ``[D_MIN, D_MAX]``.  A far-from-deadline flow (``d < 1``) backs off
more than DCTCP would; a tight-deadline flow (``d > 1``) backs off less.
Without a deadline ``d = 1`` and D2TCP degenerates to exactly DCTCP.
"""

from __future__ import annotations

from typing import Optional

from repro.transport.dctcp import DctcpCC
from repro.transport.tcp import FiniteSource

#: Clamps on the imminence exponent (the D2TCP paper uses [0.5, 2.0]).
D_MIN = 0.5
D_MAX = 2.0


class D2tcpCC(DctcpCC):
    """Deadline-aware DCTCP."""

    def __init__(self, deadline: Optional[float] = None) -> None:
        super().__init__()
        #: Absolute simulation time by which the flow wants to finish
        #: (``None`` = no deadline = plain DCTCP behaviour).
        self.deadline = deadline

    # ------------------------------------------------------------------

    def imminence(self, now: float) -> float:
        """The deadline-imminence exponent ``d``, clamped to [0.5, 2]."""
        if self.deadline is None:
            return 1.0
        sender = self.sender
        assert sender is not None
        remaining_time = self.deadline - now
        if remaining_time <= 0:
            return D_MAX  # already late: maximum aggression
        remaining_segments = self._remaining_segments()
        if remaining_segments is None or remaining_segments <= 0:
            return 1.0
        rate = sender.instant_rate
        if rate <= 0:
            return D_MAX  # no estimate yet; be aggressive, not stalled
        needed_time = remaining_segments / rate
        return min(D_MAX, max(D_MIN, needed_time / remaining_time))

    def _remaining_segments(self) -> Optional[int]:
        sender = self.sender
        assert sender is not None
        source = sender.source
        if isinstance(source, FiniteSource):
            return source.total - sender.snd_una
        return None

    def penalty(self, now: float) -> float:
        """DCTCP's alpha, gamma-corrected by the deadline imminence."""
        return self.alpha ** self.imminence(now)


__all__ = ["D2tcpCC", "D_MIN", "D_MAX"]

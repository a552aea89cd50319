"""RTT estimation and retransmission-timeout computation (RFC 6298).

The paper repeatedly blames LIA's poor small-RTT performance on
``RTOmin = 200 ms`` ("two thousand times larger than RTT of inner-rack
flows"), so the estimator keeps that floor configurable and defaults to the
Linux value the authors measured against.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.units import Seconds

#: Linux default minimum RTO; the quantity Table 1/Fig. 9 discussions hinge on.
DEFAULT_RTO_MIN = 0.200
#: Cap on exponential backoff of the RTO.
RTO_MAX = 64.0
#: RTO before the first RTT sample (RFC 6298 says 1 s).
DEFAULT_RTO_INITIAL = 1.0


class RttEstimator:
    """SRTT/RTTVAR tracking per RFC 6298 with microsecond-granularity input.

    The paper's implementation enables ``TCP_CONG_RTT_STAMP`` to get
    microsecond RTTs; our simulator timestamps are floats, so granularity
    is a non-issue, but the smoothing constants are the standard
    ``alpha=1/8``, ``beta=1/4``.
    """

    __slots__ = ("srtt", "rttvar", "rto", "rto_min", "samples")

    def __init__(self, rto_min: Seconds = DEFAULT_RTO_MIN) -> None:
        if rto_min <= 0:
            raise ValueError(f"rto_min must be positive, got {rto_min}")
        if rto_min > RTO_MAX:
            raise ValueError(f"rto_min must be <= RTO_MAX ({RTO_MAX}), got {rto_min}")
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self.rto: float = max(DEFAULT_RTO_INITIAL, rto_min)
        self.rto_min = rto_min
        self.samples = 0

    def update(self, rtt_sample: float) -> None:
        """Fold in a new RTT measurement."""
        if rtt_sample < 0:
            raise ValueError(f"negative RTT sample: {rtt_sample}")
        self.samples += 1
        if self.srtt is None:
            self.srtt = rtt_sample
            self.rttvar = rtt_sample / 2.0
        else:
            delta = rtt_sample - self.srtt
            self.rttvar += 0.25 * (abs(delta) - self.rttvar)
            self.srtt += 0.125 * delta
        raw = self.srtt + 4.0 * self.rttvar
        self.rto = min(RTO_MAX, max(self.rto_min, raw))

    def backoff(self) -> None:
        """Double the RTO after a timeout (Karn), capped at :data:`RTO_MAX`."""
        self.rto = min(RTO_MAX, self.rto * 2.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        srtt = f"{self.srtt*1e6:.0f}us" if self.srtt is not None else "-"
        return f"RttEstimator(srtt={srtt}, rto={self.rto*1e3:.1f}ms)"


__all__ = ["RttEstimator", "DEFAULT_RTO_MIN", "RTO_MAX", "DEFAULT_RTO_INITIAL"]

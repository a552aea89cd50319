"""Flow tracing: one sender's control state as a time series.

The experiment drivers aggregate; this module records.  A
:class:`FlowTracer` samples one sender's control state (cwnd, ssthresh,
srtt, delivered, retransmissions) on a fixed interval, producing the raw
material for cwnd-versus-time plots — the debugging view every congestion
-control paper lives in; ``tracer.series.to_csv()`` exports it.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.metrics.collector import SeriesSampler
from repro.sim.engine import Simulator
from repro.transport.tcp import TcpSender


class FlowTracer(SeriesSampler):
    """Sample one sender's control variables over time.

    An infinite ``ssthresh`` (still in slow start) and an unmeasured
    ``srtt`` are recorded as -1; ``in_recovery`` as 0/1.
    """

    def __init__(
        self,
        sim: Simulator,
        sender: TcpSender,
        interval: float = 1e-3,
        until: Optional[float] = None,
    ) -> None:
        super().__init__(sim, interval, until)
        self.watch("cwnd", lambda: sender.cwnd)
        self.watch(
            "ssthresh",
            lambda: -1.0 if math.isinf(sender.ssthresh) else sender.ssthresh,
        )
        self.watch("srtt", lambda: -1.0 if sender.srtt is None else sender.srtt)
        self.watch("delivered_segments", lambda: sender.delivered_segments)
        self.watch("flight", lambda: sender.flight)
        self.watch("retransmissions", lambda: sender.retransmissions)
        self.watch("timeouts", lambda: sender.timeouts)
        self.watch("in_recovery", lambda: sender.in_recovery)


__all__ = ["FlowTracer"]

"""Single-path flow convenience wrapper.

Wires a :class:`~repro.transport.tcp.TcpSender` on the source host to a
:class:`~repro.transport.receiver.Receiver` on the destination host over an
explicit path, with the ACK path derived automatically.  This is the
building block tests and the Fig. 1 experiment use directly; multipath
flows use :class:`repro.mptcp.connection.MptcpConnection` instead.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.network import Network
from repro.net.packet import MSS_BYTES
from repro.net.routing import Path
from repro.transport.cc import CongestionControl
from repro.transport.receiver import DEFAULT_DELACK_TIMEOUT, Receiver
from repro.transport.tcp import (
    FiniteSource,
    InfiniteSource,
    SegmentSource,
    TcpSender,
    segments_for_bytes,
)

class SinglePathFlow:
    """One TCP-like flow pinned to one path."""

    def __init__(
        self,
        network: Network,
        src: str,
        dst: str,
        path: Path,
        cc: CongestionControl,
        size_bytes: Optional[int] = None,
        flow_id: Optional[int] = None,
        initial_cwnd: float = 10,
        rto_min: float = 0.200,
        delack_timeout: float = DEFAULT_DELACK_TIMEOUT,
        on_complete: Optional[Callable[[float], None]] = None,
        sack: bool = False,
    ) -> None:
        self.network = network
        self.src = src
        self.dst = dst
        self.flow_id = flow_id if flow_id is not None else network.next_flow_id()
        self.size_bytes = size_bytes
        source: SegmentSource
        if size_bytes is None:
            source = InfiniteSource()
            self.total_segments: Optional[int] = None
        else:
            self.total_segments = segments_for_bytes(size_bytes)
            source = FiniteSource(self.total_segments)
        self._user_on_complete = on_complete
        self.sender = TcpSender(
            network.sim,
            network.host(src),
            self.flow_id,
            0,
            path,
            cc,
            source,
            initial_cwnd=initial_cwnd,
            rto_min=rto_min,
            on_complete=self._on_complete,
            sack_enabled=sack,
        )
        self.receiver = Receiver(
            network.sim,
            network.host(dst),
            self.flow_id,
            0,
            network.reverse_path(path),
            echo_mode=cc.echo_mode,
            delack_timeout=delack_timeout,
            sack_enabled=sack,
        )
        self.complete_time: Optional[float] = None

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start transmitting now (schedule via ``sim.schedule`` for later)."""
        self.sender.start()

    def stop(self) -> None:
        """Stop the flow (long-running flows in staged experiments)."""
        self.sender.stop()

    @property
    def completed(self) -> bool:
        return self.sender.completed

    @property
    def delivered_bytes(self) -> int:
        """Payload bytes cumulatively acknowledged."""
        return self.sender.delivered_segments * MSS_BYTES

    def goodput_bps(self) -> float:
        """Average goodput over the flow's lifetime so far, bits/second.

        For completed flows this is the paper's "Goodput" metric (§5.2.2):
        transfer size over whole running time.
        """
        end = self.complete_time if self.complete_time is not None else self.network.sim.now
        duration = end - self.sender.start_time
        if duration <= 0:
            return 0.0
        return self.delivered_bytes * 8.0 / duration

    def _on_complete(self, now: float) -> None:
        self.complete_time = now
        if self._user_on_complete is not None:
            self._user_on_complete(now)


__all__ = ["SinglePathFlow"]

"""The MPTCP connection: subflows over pinned paths, one shared byte pool.

This is the unified transfer object every experiment uses — single-path
schemes are simply connections with one subflow and an uncoupled
controller, which keeps goodput accounting and lifecycle identical across
DCTCP, TCP, LIA-x and XMP-x (exactly how the paper's tables compare them).

Scheduling is a *demand-driven* pull model: every subflow pulls batches
of segments from the connection's one shared
:class:`~repro.transport.tcp.FiniteSource` whenever its congestion
window opens.  Faster subflows (larger window, shorter RTT) therefore
naturally carry proportionally more of the transfer — the steady-state
behaviour of the Linux MPTCP lowest-RTT-first scheduler the paper's
implementation used — without simulating per-packet scheduler decisions.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.net.network import Network
from repro.net.packet import MSS_BYTES
from repro.net.routing import Path
from repro.sim.probe import watchers
from repro.sim.units import Seconds
from repro.transport.receiver import Receiver
from repro.transport.tcp import (
    FiniteSource,
    InfiniteSource,
    TcpSender,
    segments_for_bytes,
)
from repro.mptcp.coupling import create_coupling


class Subflow:
    """One subflow: its sender, receiver and pinned forward path."""

    __slots__ = ("index", "sender", "receiver", "path", "failed")

    def __init__(self, index: int, sender: TcpSender, receiver: Receiver, path: Path) -> None:
        self.index = index
        self.sender = sender
        self.receiver = receiver
        self.path = path
        #: Set when reinjection declared this subflow's path dead.
        self.failed = False


class MptcpConnection:
    """A multipath transfer from ``src`` to ``dst`` over explicit paths;
    ``scheme`` is a :data:`~repro.mptcp.coupling.SCHEMES` name."""

    def __init__(
        self,
        network: Network,
        src: str,
        dst: str,
        paths: Sequence[Path],
        scheme: str = "xmp",
        size_bytes: Optional[int] = None,
        beta: float = 4.0,
        rto_min: Seconds = 0.200,
        on_complete: Optional[Callable[["MptcpConnection", float], None]] = None,
        reinject_after_timeouts: Optional[int] = None,
        sack: bool = False,
        ack_jitter: Seconds = 0.0,
    ) -> None:
        if not paths:
            raise ValueError("a connection needs at least one path")
        self.network = network
        self.src = src
        self.dst = dst
        self.scheme = scheme
        self.flow_id = network.next_flow_id()
        self.size_bytes = size_bytes
        self.on_complete = on_complete
        self.coupling = create_coupling(scheme, beta=beta)
        if size_bytes is None:
            self.total_segments: Optional[int] = None
            self.source = InfiniteSource()
        else:
            self.total_segments = segments_for_bytes(size_bytes)
            self.source = FiniteSource(self.total_segments)
        self.delivered_segments = 0
        self.completed = False
        self.start_time: Optional[float] = None
        self.complete_time: Optional[float] = None
        #: After this many consecutive RTOs a subflow is declared dead and
        #: its undelivered share of the pool is reinjected through the
        #: surviving subflows (None disables; finite transfers only).
        self.reinject_after_timeouts = reinject_after_timeouts
        #: Enable (simplified) SACK on every subflow; off by default to
        #: match the paper-default stack.
        self.sack = sack
        #: Receiver-side ACK jitter bound, seconds (0 = deterministic).
        self.ack_jitter = ack_jitter
        self._rto_min = rto_min
        self.subflows: List[Subflow] = []
        for path in paths:
            self.add_subflow(path)
        for probe in watchers():
            probe.watch_connection(self)

    def add_subflow(self, path: Path, start: bool = False) -> Subflow:
        """Attach one more subflow over ``path``.

        Subflows can be added while the connection runs (the paper's Fig. 6
        experiment establishes Flow 1's subflows at 0 s, 5 s and 15 s);
        pass ``start=True`` (or call ``subflow.sender.start()``) to begin
        transmitting immediately.
        """
        index = len(self.subflows)
        cc = self.coupling.make_controller()
        sender = TcpSender(
            self.network.sim,
            self.network.host(self.src),
            self.flow_id,
            index,
            path,
            cc,
            self.source,
            rto_min=self._rto_min,
            on_delivered=self._on_delivered,
            sack_enabled=self.sack,
        )
        receiver = Receiver(
            self.network.sim,
            self.network.host(self.dst),
            self.flow_id,
            index,
            self.network.reverse_path(path),
            echo_mode=cc.echo_mode,
            sack_enabled=self.sack,
            ack_jitter=self.ack_jitter,
            jitter_seed=self.flow_id * 131 + index,
        )
        if self.reinject_after_timeouts is not None:
            sender.on_timeout_event = self._maybe_reinject
        subflow = Subflow(index, sender, receiver, path)
        self.subflows.append(subflow)
        if start:
            sender.start()
        return subflow

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start every not-yet-running subflow.

        The first call stamps the connection's start time; later calls
        (after :meth:`add_subflow`) only start the new subflows.
        """
        if self.start_time is None:
            self.start_time = self.network.sim.now
        for subflow in self.subflows:
            if not subflow.sender.running:
                subflow.sender.start()

    def stop(self) -> None:
        """Stop all subflows (used when tearing down long-running flows)."""
        for subflow in self.subflows:
            subflow.sender.stop()

    def close(self) -> None:
        """Stop and release the endpoints; completion calls this too.

        Every sender is closed for good.  Every receiver is too, except
        that a *completed* connection keeps the receiver of each subflow
        that is not :attr:`~repro.transport.tcp.TcpSender.settled`: a copy
        of one of its segments may still arrive, and is ACKed as before.

        Closing leaves the connection acyclic: each sender and controller
        cuts its own back-edges (:meth:`TcpSender.close
        <repro.transport.tcp.TcpSender.close>`), while the forward edges a
        report reads afterwards stay (``coupling.controllers`` and each
        controller's counters).  A finished flow is therefore freed by
        reference counting the moment its last outside holder lets go,
        with no garbage collection; a receiver kept for a late copy lives
        on in its host until the topology is collected at the end of the
        cell.
        """
        for subflow in self.subflows:
            subflow.sender.close()
            if not self.completed or subflow.sender.settled:
                subflow.receiver.close()

    def _maybe_reinject(self, sender: TcpSender) -> None:
        """Declare a repeatedly-timed-out subflow dead and reinject its data.

        Connection-level robustness (the paper's §7 future-work point):
        segments granted to a dead subflow but never delivered are returned
        to the shared pool, and the surviving subflows are kicked so they
        pick the work up immediately.
        """
        limit = self.reinject_after_timeouts
        if limit is None or self.completed:
            return
        if sender.consecutive_timeouts < limit:
            return
        subflow = self.subflows[sender.subflow]
        if subflow.failed:
            return
        alive = [
            s for s in self.subflows
            if s.sender is not sender and not s.failed and s.sender.running
        ]
        if not alive:
            return  # nowhere to shift the data; keep probing this path
        subflow.failed = True
        sender.stop()
        undelivered = sender.assigned - sender.snd_una
        if undelivered > 0 and self.total_segments is not None:
            self.source.restitute(undelivered)
            for survivor in alive:
                survivor.sender.kick()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _on_delivered(self, newly: int) -> None:
        self.delivered_segments += newly
        if (
            not self.completed
            and self.total_segments is not None
            and self.delivered_segments >= self.total_segments
        ):
            self.completed = True
            self.complete_time = self.network.sim.now
            self.close()
            if self.on_complete is not None:
                self.on_complete(self, self.complete_time)

    @property
    def delivered_bytes(self) -> int:
        """Payload bytes acknowledged across all subflows."""
        return self.delivered_segments * MSS_BYTES

    def goodput_bps(self) -> float:
        """The paper's Goodput metric: size over whole running time."""
        if self.start_time is None:
            return 0.0
        end = self.complete_time if self.complete_time is not None else self.network.sim.now
        duration = end - self.start_time
        if duration <= 0:
            return 0.0
        return self.delivered_bytes * 8.0 / duration

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MptcpConnection(flow={self.flow_id}, {self.scheme}, "
            f"{self.src}->{self.dst}, subflows={len(self.subflows)})"
        )


__all__ = ["MptcpConnection", "Subflow"]

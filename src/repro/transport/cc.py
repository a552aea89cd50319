"""Congestion-control strategy interface plus TCP Reno/NewReno.

A :class:`CongestionControl` instance is attached to exactly one
:class:`~repro.transport.tcp.TcpSender` and mutates its ``cwnd`` /
``ssthresh`` in response to the sender's events.  The split keeps the
sequence/retransmission machinery (identical for every scheme) in the
sender and the window laws (the thing the paper varies) in small, testable
strategy classes:

* :class:`RenoCC` — here, loss-based AIMD with optional classic ECN.
* :class:`~repro.transport.dctcp.DctcpCC` — DCTCP.
* :class:`~repro.core.bos.BosCC` — the paper's BOS, optionally coupled by
  TraSh into XMP.
* :class:`~repro.mptcp.olia.OliaCC` — Reno with OLIA's increase.

All of the ECN-reacting schemes share the paper's Fig. 2 state machine —
reduce at most once per round, tracked through ``cwr_seq`` — implemented
once in the base class (:meth:`CongestionControl.update_cwr_state`,
:meth:`CongestionControl.enter_reduced`).  The controllers of one flow
come from its :class:`Coupling`.  A coupled BOS or Reno controller asks
its coupling for the increase (:meth:`Coupling.increase`): BOS's delta
once per round (XMP), Reno's per-segment increase per ACK (LIA).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from repro.transport.receiver import EchoMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.transport.tcp import TcpSender

#: Lower bound the paper imposes on any subflow's window ("it is more
#: reasonable to set 2 packets as the lower-bound of cwnd", §2.2 footnote).
MIN_CWND = 2.0

NORMAL = 0
REDUCED = 1


class CongestionControl:
    """Base strategy: hooks called by the sender, state for the CWR machine."""

    #: Whether the scheme sets ECT on its data packets (queues only mark ECT).
    ecn_capable = False
    #: Which receiver echo discipline the scheme expects.
    echo_mode = EchoMode.CLASSIC

    def __init__(self) -> None:
        self.sender: Optional["TcpSender"] = None
        #: The flow's coupling, for a controller that reads one.
        self.coupling: Optional[Coupling] = None
        self.state = NORMAL
        self.cwr_seq = 0
        #: Optional validation observer (see :mod:`repro.validate`); only
        #: schemes that report reductions/rounds (BOS) consult it.
        self.observer = None

    def attach(self, sender: "TcpSender") -> None:
        """Bind to the sender; called once from the sender's constructor."""
        if self.sender is not None:
            raise RuntimeError("congestion control already attached")
        self.sender = sender

    def close(self) -> None:
        """Let go of the sender, for good; :meth:`TcpSender.close
        <repro.transport.tcp.TcpSender.close>` calls this.  A coupled law
        also drops its edge to the coupling here, so a finished flow holds
        no cycle and reference counting frees it."""
        self.sender = None
        self.coupling = None

    # ------------------------------------------------------------------
    # Events (the sender calls these)
    # ------------------------------------------------------------------

    def on_ack(
        self,
        newly_acked: int,
        ece_count: int,
        rtt_sample: Optional[float],
        now: float,
        round_ended: bool,
    ) -> None:
        """A (possibly duplicate) ACK arrived; adjust the window."""
        raise NotImplementedError

    def on_loss_event(self, now: float) -> None:
        """Fast retransmit fired: standard multiplicative decrease."""
        sender = self.sender
        assert sender is not None
        sender.ssthresh = max(sender.flight / 2.0, MIN_CWND)
        sender.cwnd = sender.ssthresh

    def on_timeout(self, now: float) -> None:
        """RTO fired: collapse to one segment and re-probe."""
        sender = self.sender
        assert sender is not None
        sender.ssthresh = max(sender.flight / 2.0, MIN_CWND)
        sender.cwnd = 1.0
        self.state = NORMAL

    # ------------------------------------------------------------------
    # The Fig. 2 once-per-round reduction machine
    # ------------------------------------------------------------------

    def update_cwr_state(self, ack: int) -> None:
        """Return to NORMAL once the reduction round has been fully ACKed."""
        if self.state != NORMAL and ack >= self.cwr_seq:
            self.state = NORMAL

    def enter_reduced(self) -> bool:
        """Try to start a reduction; ``False`` when one is already pending."""
        if self.state != NORMAL:
            return False
        sender = self.sender
        assert sender is not None
        self.state = REDUCED
        self.cwr_seq = sender.snd_nxt
        return True

    @property
    def in_slow_start(self) -> bool:
        sender = self.sender
        assert sender is not None
        return sender.cwnd < sender.ssthresh


class RenoCC(CongestionControl):
    """TCP Reno/NewReno, optionally with classic (RFC 3168) ECN.

    This is the per-subflow behaviour of standard TCP, and — with
    ``ecn=False`` — what the paper's "TCP" small flows and background flows
    run.  Under LIA, ``coupling.increase`` is the per-segment increase.
    """

    def __init__(self, ecn: bool = False, coupling: Optional[Coupling] = None) -> None:
        super().__init__()
        self.ecn_capable = ecn
        self.coupling = coupling

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
        if self.ecn_capable and ece_count > 0 and self.enter_reduced():
            # Classic ECN: treat ECE like a loss (halve), once per RTT.
            sender.ssthresh = max(sender.cwnd / 2.0, MIN_CWND)
            sender.cwnd = sender.ssthresh
            return
        if newly_acked <= 0 or sender.in_recovery:
            return
        if self.in_slow_start:
            sender.cwnd += newly_acked
        else:
            sender.cwnd += self.increase_per_segment(newly_acked) * newly_acked

    def increase_per_segment(self, newly_acked: int) -> float:
        """Additive increase per ACKed segment: the coupling's, else 1/cwnd.
        OLIA overrides this."""
        sender = self.sender
        assert sender is not None
        coupling = self.coupling
        if coupling is not None:
            increase = coupling.increase(sender)
            if increase is not None:
                return increase
        return 1.0 / max(sender.cwnd, 1.0)


class Coupling:
    """One flow's controllers: hands out one per subflow.

    A coupled scheme subclasses this with what its controllers share,
    read off its active subflows (a scheme row's flow reductions, OLIA's
    path sets), and overrides :meth:`_new_controller`: a method,
    not a closure over the coupling, so nothing the coupling owns points
    back at it once its controllers are closed.  The base itself is the
    uncoupled case: independent controllers, each built by ``law``.
    """

    def __init__(self, law: Optional[Callable[[], CongestionControl]] = None) -> None:
        self._law = law
        self._controllers: List[CongestionControl] = []

    def make_controller(self) -> CongestionControl:
        controller = self._new_controller()
        self._controllers.append(controller)
        return controller

    def _new_controller(self) -> CongestionControl:
        assert self._law is not None
        return self._law()

    @property
    def controllers(self) -> List[CongestionControl]:
        return list(self._controllers)

    def increase(self, sender: "TcpSender") -> Optional[float]:
        """The coupled increase of ``sender``'s subflow, or ``None`` when
        there is none yet and its controller takes its own uncoupled one
        (always, for the base)."""
        return None

    def active_senders(self) -> List["TcpSender"]:
        """The senders of the subflows that are started and unfinished."""
        return [
            sender
            for controller in self._controllers
            if (sender := controller.sender) is not None
            and sender.running
            and not sender.completed
        ]


__all__ = [
    "CongestionControl",
    "Coupling",
    "RenoCC",
    "MIN_CWND",
    "NORMAL",
    "REDUCED",
]

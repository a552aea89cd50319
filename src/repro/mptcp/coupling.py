"""The scheme table: every congestion scheme, declared once.

The paper defines XMP as a decomposition — a per-subflow window law
(BOS), a coupling (TraSh), a congestion signal (ECN at the knee K) and a
receiver echo discipline — and compares it with schemes that differ in
exactly those columns.  :data:`SCHEMES` holds one row per scheme name
with those columns, the factory that builds the flow's
:class:`~repro.transport.cc.Coupling` and, where the scheme has one, its
law in the shape Peng, Walid, Hwang & Low give an MP-TCP algorithm: the
per-flow reductions the coupling reads (``flow``), the per-subflow
increase (``increase``) and the fluid drift (``drift``, ``state0``).
Both backends read the one law: :class:`LawCoupling` evaluates ``flow``
and ``increase`` on the packet engine's senders, and both fluid solvers
evaluate ``flow`` and ``drift`` (which calls ``increase``).

Everything that needs to know what schemes exist reads the table:
:func:`create_coupling` (the packet engine), :func:`parse_scheme_spec`
(the CLI's ``--schemes``), the fluid backend (:mod:`repro.fluid.laws`
runs the rows with a drift and takes the knee choice from ``ecn``) and
DESIGN.md's scheme table (:func:`repro.fluid.laws.render_scheme_table`).
A new scheme is a new row here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.core import bos, trash
from repro.core.bos import BosCC
from repro.mptcp import lia
from repro.mptcp.olia import OliaCoupling
from repro.transport import dctcp
from repro.transport.cc import CongestionControl, Coupling, RenoCC
from repro.transport.dctcp import DctcpCC
from repro.transport.receiver import EchoMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.transport.tcp import TcpSender

#: ``build(row, beta)`` -> the coupling of one flow.
Builder = Callable[["Scheme", float], Coupling]

#: The ``xp`` a law is evaluated with on floats: the builtins that stand
#: for numpy's elementwise ``minimum``/``maximum``.
FLOATS = SimpleNamespace(minimum=min, maximum=max)


@dataclass(frozen=True)
class Scheme:
    """One row of :data:`SCHEMES`."""

    name: str
    #: The per-subflow window law and what couples the subflows, as the
    #: docs name them.
    law: str
    coupling: str
    #: The congestion signal: ECN marks at the knee K (True) or
    #: buffer-full loss (False).
    ecn: bool
    #: The receiver echo discipline the law expects.
    echo: EchoMode
    build: Builder
    #: The per-flow reductions the law reads, as ``(reduction, term)``
    #: pairs: the builtin ``sum``, ``min`` or ``max`` of a column (``"w"``
    #: window, ``"rtt"``, ``"x"`` rate) or of an elementwise ``term(w, rtt)``.
    flow: Tuple[Tuple[Callable[..., Any], Any], ...] = ()
    #: ``increase(xp, w, flow)``: the coupled increase of a subflow of
    #: window ``w`` (BOS's delta per round, Reno's per ACKed segment).
    increase: Optional[Callable[..., Any]] = None
    #: ``drift(xp, w, p, rtt, x, flow, beta, state) -> (dw, dstate)``: one
    #: elementwise expression of a subflow's window, marking probability,
    #: RTT and rate ``x = w/rtt``, ``flow`` holding its flow's reductions.
    #: The fluid reference solver calls it per subflow on floats
    #: (``xp`` = :data:`FLOATS`), the vector solver once on numpy arrays.
    drift: Optional[Callable[..., Tuple[Any, Any]]] = None
    #: Initial value of the per-subflow state integrated beside the window
    #: (DCTCP's alpha, drifting at ``dstate``); ``None`` when there is none.
    state0: Optional[float] = None


#: The two values of a row's ``ecn`` column.
ECN, LOSS = True, False


class LawCoupling(Coupling):
    """The coupling of a row with a law: ``increase`` over ``flow``.

    Each controller ``law(coupling=...)`` builds asks :meth:`increase`
    for its subflow's increase; ``None`` means the law cannot be read
    yet and the controller takes its own uncoupled increase.
    """

    def __init__(self, row: Scheme, law: Callable[..., CongestionControl]) -> None:
        super().__init__(law)
        self.row = row

    def _new_controller(self) -> CongestionControl:
        assert self._law is not None
        return self._law(coupling=self)

    def reduce(self) -> Optional[Tuple[float, ...]]:
        """The row's ``flow`` over the active subflows, or ``None`` while
        some reduction cannot be taken or is not positive.

        The columns are every active sender's ``cwnd`` (``w``) and
        ``instant_rate`` (``x``, 0.0 until its first RTT sample) and the
        ``srtt`` of those that have one (``rtt``); a ``term(w, rtt)``
        needs every subflow's.  Each reduction is the builtin the fluid
        reference solver folds a flow with.
        """
        active = self.active_senders()
        w = [sender.cwnd for sender in active]
        rtt = [srtt for sender in active if (srtt := sender.rtt.srtt) is not None and srtt > 0]
        columns = {"w": w, "x": [sender.instant_rate for sender in active], "rtt": rtt}
        flow: Tuple[float, ...] = ()
        for reduction, term in self.row.flow:
            if term in columns:
                values = columns[term]
            elif len(rtt) < len(w):
                return None
            else:
                values = list(map(term, w, rtt))
            if not values or not (value := reduction(values)) > 0:
                return None
            flow += (value,)
        return flow

    def increase(self, sender: "TcpSender") -> Optional[float]:
        """The row's ``increase`` for ``sender``'s window over :meth:`reduce`,
        or ``None`` while that is unmeasurable or the increase not positive."""
        flow = self.reduce()
        if flow is None:
            return None
        assert self.row.increase is not None
        increase = self.row.increase(FLOATS, sender.cwnd, flow)
        return increase if increase > 0 else None


def _uncoupled(law: Callable[[], CongestionControl]) -> Builder:
    """Independent controllers: the base coupling around ``law``."""
    return lambda row, beta: Coupling(law)


#: name -> row, in the order the CLI and the docs list them.  ``beta``
#: only reaches the BOS rows.
SCHEMES: Dict[str, Scheme] = {
    row.name: row
    for row in (
        Scheme("xmp", "BOS (Algorithm 1)", "TraSh (Eq. 9)", ECN, EchoMode.XMP,
               lambda row, beta: LawCoupling(row, partial(BosCC, beta)),
               flow=trash.FLOW, increase=trash.increase, drift=trash.drift),
        Scheme("bos-uncoupled", "BOS (Algorithm 1)", "none (delta = 1)", ECN,
               EchoMode.XMP,
               lambda row, beta: Coupling(partial(BosCC, beta)),
               drift=bos.drift),
        Scheme("lia", "Reno", "LIA (RFC 6356)", LOSS, EchoMode.CLASSIC,
               lambda row, beta: LawCoupling(row, RenoCC),
               flow=lia.FLOW, increase=lia.increase, drift=lia.drift),
        Scheme("olia", "Reno", "OLIA", LOSS, EchoMode.CLASSIC,
               lambda row, beta: OliaCoupling()),
        Scheme("dctcp", "DCTCP", "none", ECN, EchoMode.DCTCP, _uncoupled(DctcpCC),
               drift=dctcp.drift, state0=1.0),
        Scheme("tcp", "Reno", "none", LOSS, EchoMode.CLASSIC, _uncoupled(RenoCC)),
        Scheme("reno-ecn", "Reno + RFC 3168 ECN", "none", ECN, EchoMode.CLASSIC,
               _uncoupled(lambda: RenoCC(ecn=True))),
    )
}


def scheme_row(scheme: str) -> Scheme:
    """The table row of ``scheme`` (case-insensitive); ``ValueError`` if none."""
    row = SCHEMES.get(scheme.lower())
    if row is None:
        raise ValueError(f"unknown scheme {scheme!r} (one of {', '.join(SCHEMES)})")
    return row


def create_coupling(scheme: str, beta: float = 4.0) -> Coupling:
    """Build the coupling object for ``scheme``, a :data:`SCHEMES` name."""
    row = scheme_row(scheme)
    return row.build(row, beta)


def parse_scheme_spec(spec: str) -> Tuple[str, int]:
    """Parse a CLI scheme spec: ``"xmp-2"`` -> ("xmp", 2), ``"dctcp"`` -> ("dctcp", 1).

    Raises ``ValueError`` for a scheme the table does not have or a
    subflow count below 1, so a typo fails at parse time rather than
    inside a cell.
    """
    scheme, subflows = spec.lower(), 1
    name, dash, count = scheme.rpartition("-")
    if dash and count.isdigit():
        scheme, subflows = name, int(count)
    if subflows < 1:
        raise ValueError(f"need at least one subflow, got {spec!r}")
    return scheme_row(scheme).name, subflows


def scheme_label(scheme: str, subflows: int = 1) -> str:
    """The report name of a scheme at a subflow count: "XMP-2", "DCTCP"."""
    base = scheme.upper()
    return f"{base}-{subflows}" if subflows > 1 else base


__all__ = [
    "FLOATS",
    "SCHEMES",
    "LawCoupling",
    "Scheme",
    "create_coupling",
    "parse_scheme_spec",
    "scheme_label",
    "scheme_row",
]

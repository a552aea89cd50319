"""The scheme table: every congestion scheme, declared once.

The paper defines XMP as a decomposition — a per-subflow window law
(BOS), a coupling (TraSh), a congestion signal (ECN at the knee K) and a
receiver echo discipline — and compares it with schemes that differ in
exactly those columns.  :data:`SCHEMES` holds one row per scheme name
with those columns and the factory that builds the flow's
:class:`~repro.transport.cc.Coupling`.  Everything that needs to know
what schemes exist reads it: :func:`create_coupling` (the packet
engine), :func:`parse_scheme_spec` (the CLI's ``--schemes``), the fluid
backend (:mod:`repro.fluid.laws` keys its fluid laws by these names and
takes the knee choice from ``ecn``) and DESIGN.md's scheme table
(:func:`repro.fluid.laws.render_scheme_table`).  A new scheme is a new
row here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.core.bos import BosCC
from repro.core.trash import TraSh
from repro.mptcp.lia import LiaCoupling
from repro.mptcp.olia import OliaCoupling
from repro.transport.cc import CongestionControl, Coupling, RenoCC
from repro.transport.dctcp import DctcpCC
from repro.transport.receiver import EchoMode

#: ``build(beta)`` -> the coupling of one flow.
Builder = Callable[[float], Coupling]


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


#: The two values of a row's ``ecn`` column.
ECN, LOSS = True, False


def _uncoupled(law: Callable[[], CongestionControl]) -> Builder:
    """Independent controllers: the base coupling around ``law``."""
    return lambda beta: Coupling(law)


#: name -> row, in the order the CLI and the docs list them.  ``beta``
#: only reaches the BOS rows.
SCHEMES: Dict[str, Scheme] = {
    row.name: row
    for row in (
        Scheme("xmp", "BOS (Algorithm 1)", "TraSh (Eq. 9)", ECN, EchoMode.XMP, TraSh),
        Scheme("bos-uncoupled", "BOS (Algorithm 1)", "none (delta = 1)", ECN,
               EchoMode.XMP,
               lambda beta: Coupling(lambda: BosCC(beta=beta))),
        Scheme("lia", "Reno", "LIA (RFC 6356)", LOSS, EchoMode.CLASSIC,
               lambda beta: LiaCoupling()),
        Scheme("olia", "Reno", "OLIA", LOSS, EchoMode.CLASSIC,
               lambda beta: OliaCoupling()),
        Scheme("dctcp", "DCTCP", "none", ECN, EchoMode.DCTCP, _uncoupled(DctcpCC)),
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
    return scheme_row(scheme).build(beta)


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
    "SCHEMES",
    "Scheme",
    "create_coupling",
    "parse_scheme_spec",
    "scheme_label",
    "scheme_row",
]

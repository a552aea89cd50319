"""The fluid side of the scheme table.

A scheme's fluid law is part of its row in
:data:`repro.mptcp.coupling.SCHEMES` (so that ``repro.mptcp`` imports
nothing from ``repro.fluid``): the per-flow reductions ``flow``, the
``drift`` both solvers evaluate and the ``state0`` of the state it
integrates beside the window.  The ``xmp`` and ``lia`` drifts call the
very ``increase`` the packet controllers are handed
(:mod:`repro.core.trash`, :mod:`repro.mptcp.lia`); ``bos-uncoupled`` is
Eq. 2 with delta = 1 (:mod:`repro.core.bos`) and ``dctcp`` integrates
its marked-fraction EWMA beside the window (:mod:`repro.transport.dctcp`).

This module holds what only the fluid backend reads: which rows it runs
(:data:`FLUID_SCHEMES`), the window floor and the marking knee.
``tests/test_fluid_backend.py`` pins the two solvers' evaluations equal
with ``==``.  Which knee a scheme's marking probability sits at — ECN's
K or the buffer limit — is the table's ``ecn`` column.
"""

from __future__ import annotations

import math

from repro.mptcp.coupling import SCHEMES, Scheme

#: Window floor in packets — matches the packet engine's one-segment
#: minimum.
MIN_WINDOW = 1.0

#: Width (packets) of the logistic marking knee both solvers evaluate
#: (:func:`threshold_marking_probability`).
MARKING_WIDTH = 2.0

#: Cap on the marking knee's exponent: ``exp(709)`` (~8.2e307) still fits
#: a double, so a queue far below its knee reads a probability of
#: ~1e-308 instead of overflowing.  Every exponent below the cap keeps
#: its bits.
MAX_EXPONENT = 709.0


def threshold_marking_probability(queue_packets: float, threshold: float) -> float:
    """Smooth stand-in for 'at least one mark this round' near a K-queue.

    Below ``K`` the instantaneous queue rarely crosses the threshold
    within a round; above it, almost every round sees a mark.  A logistic
    of width :data:`MARKING_WIDTH` reproduces that knife edge while
    keeping the ODE well behaved.
    """
    exponent = (threshold - queue_packets) / MARKING_WIDTH
    return 1.0 / (1.0 + math.exp(exponent if exponent < MAX_EXPONENT else MAX_EXPONENT))


#: Scheme names accepted by the fluid backend: the rows with a drift, in
#: the table's order.
FLUID_SCHEMES = tuple(name for name, row in SCHEMES.items() if row.drift is not None)


def fluid_law(scheme: str) -> Scheme:
    """The row of ``scheme``; ``ValueError`` when it has no fluid law."""
    row = SCHEMES.get(scheme)
    if row is None or row.drift is None:
        raise ValueError(
            f"scheme {scheme!r} has no fluid law (one of {', '.join(FLUID_SCHEMES)})"
        )
    return row


def render_scheme_table() -> str:
    """The markdown scheme table embedded in DESIGN.md §2.

    ``tests/test_scheme_table.py`` pins the document copy to this output.
    """
    lines = [
        "| scheme | window law | coupling | signal | echo | fluid law |",
        "|---|---|---|---|---|---|",
    ]
    for row in SCHEMES.values():
        signal = "ECN at K" if row.ecn else "loss"
        fluid = "yes" if row.drift is not None else "no"
        lines.append(
            f"| `{row.name}` | {row.law} | {row.coupling} | {signal} "
            f"| {row.echo.value} | {fluid} |"
        )
    return "\n".join(lines)


__all__ = [
    "FLUID_SCHEMES",
    "MARKING_WIDTH",
    "MAX_EXPONENT",
    "MIN_WINDOW",
    "fluid_law",
    "render_scheme_table",
    "threshold_marking_probability",
]

"""The closed-form model behind XMP: paper Eqs. 1-9.

These functions are used three ways:

* by experiments, to derive the marking threshold ``K`` from ``beta`` and
  the path BDP (Eq. 1), as the paper does for Fig. 7;
* by tests, to check the simulator's equilibria against the fluid model
  (Eq. 3's marking probability, Eq. 9's delta fixed point);
* as executable documentation of §2's derivation (utility functions,
  concavity, the Congestion Equality Principle).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core import trash


def min_marking_threshold(bdp_packets: float, beta: float) -> float:
    """Eq. 1 — the smallest K that keeps the link busy through a 1/beta cut.

    ``(K + BDP)/beta <= K``  ⇒  ``K >= BDP/(beta - 1)``, ``beta >= 2``.
    """
    if beta < 2:
        raise ValueError(f"Eq. 1 requires beta >= 2, got {beta}")
    if bdp_packets < 0:
        raise ValueError(f"BDP must be >= 0, got {bdp_packets}")
    return bdp_packets / (beta - 1.0)


def equilibrium_marking_probability(
    window: float, delta: float, beta: float
) -> float:
    """Eq. 3 — per-round marking probability at the BOS equilibrium.

    ``p = 1 / (1 + w / (delta * beta))`` where ``w`` is the equilibrium
    window.  Derived by zeroing Eq. 2's drift.
    """
    if window < 0 or delta <= 0 or beta <= 0:
        raise ValueError("window must be >= 0 and delta, beta positive")
    return 1.0 / (1.0 + window / (delta * beta))


def equilibrium_window(p: float, delta: float, beta: float) -> float:
    """Invert Eq. 3: the window at which marking probability ``p`` balances.

    Equivalently TraSh step 2's rate-convergence condition rearranged:
    ``x = beta*delta*(1-p)/(T*p)`` times T.
    """
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p}")
    return delta * beta * (1.0 - p) / p


def bos_utility(x: float, rtt: float, beta: float, delta: float = 1.0) -> float:
    """Eq. 4 — the utility function BOS maximizes for one path.

    ``U(x) = (delta*beta/T) * log(1 + T*x/(delta*beta))``.
    """
    if x < 0 or rtt <= 0 or beta <= 0 or delta <= 0:
        raise ValueError("x must be >= 0 and rtt, beta, delta positive")
    scale = delta * beta / rtt
    return scale * math.log(1.0 + x / scale)


def xmp_utility(total_rate: float, min_rtt: float, beta: float) -> float:
    """Eq. 6 — the flow-level utility XMP maximizes.

    ``U(y) = (beta/T_s) * log(1 + T_s*y/beta)`` with
    ``T_s = min_r T_{s,r}``.
    """
    return bos_utility(total_rate, min_rtt, beta, delta=1.0)


def xmp_expected_congestion(total_rate: float, min_rtt: float, beta: float) -> float:
    """Eq. 7 — ``U'(y) = 1 / (1 + y*T_s/beta)``.

    Interpreted as the congestion a flow *should* see on a virtual single
    path carrying all its traffic.
    """
    if total_rate < 0 or min_rtt <= 0 or beta <= 0:
        raise ValueError("rate must be >= 0 and rtt, beta positive")
    return 1.0 / (1.0 + total_rate * min_rtt / beta)


def subflow_equilibrium_probability(
    rate: float, rtt: float, delta: float, beta: float
) -> float:
    """Eq. 8 — per-subflow equilibrium marking probability.

    ``p_r = 1 / (1 + x_r*T_r/(delta_r*beta))``.
    """
    if rate < 0 or rtt <= 0 or delta <= 0 or beta <= 0:
        raise ValueError("rate must be >= 0 and rtt, delta, beta positive")
    return 1.0 / (1.0 + rate * rtt / (delta * beta))


def trash_step(
    rates: Sequence[float], rtts: Sequence[float]
) -> list:
    """One TraSh Parameter Adjustment step over all subflows of a flow.

    Given converged per-subflow rates and RTTs, return the next deltas
    (TraSh step 3): Eq. 9's fixed point ``delta = (T_r*x_r)/(T_s*y_s)``,
    which is :func:`repro.core.trash.coupled_delta` at ``cwnd = x_r * T_r``.
    Unlike the packet coupling, which answers unmeasurable inputs with its
    uncoupled fallback, this rejects them.  Used by tests to verify
    Proposition 1 — the update raises delta exactly on subflows whose
    congestion is below the flow's expected congestion.
    """
    if len(rates) != len(rtts):
        raise ValueError("rates and rtts must have the same length")
    if not rates:
        return []
    total = sum(rates)
    min_rtt = min(rtts)
    if total <= 0 or min_rtt <= 0:
        raise ValueError("total rate and every rtt must be positive")
    if min(rates) < 0:
        raise ValueError("rates must be >= 0")
    return [trash.coupled_delta(x * t, total, min_rtt) for x, t in zip(rates, rtts)]


__all__ = [
    "min_marking_threshold",
    "equilibrium_marking_probability",
    "equilibrium_window",
    "bos_utility",
    "xmp_utility",
    "xmp_expected_congestion",
    "subflow_equilibrium_probability",
    "trash_step",
]

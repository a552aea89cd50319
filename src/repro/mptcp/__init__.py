"""MPTCP: multipath connections and coupled congestion control.

An :class:`~repro.mptcp.connection.MptcpConnection` stripes one logical
transfer over several subflows, each a full
:class:`~repro.transport.tcp.TcpSender` pinned to its own path.  How the
subflows' windows are coupled is the scheme's *coupling*, one column of
its row in :data:`repro.mptcp.coupling.SCHEMES` — the one table of
schemes (``"xmp"``, the paper's; ``"lia"`` and ``"olia"``, MPTCP's
couplings; ``"bos-uncoupled"``, the coupling ablation; ``"dctcp"``,
``"tcp"``, ``"reno-ecn"``, uncoupled laws that are the single-path
baselines when used with one path).
"""

from repro.mptcp.connection import MptcpConnection, Subflow
from repro.mptcp.coupling import create_coupling
from repro.mptcp.olia import OliaCoupling, OliaCC

__all__ = [
    "MptcpConnection",
    "Subflow",
    "create_coupling",
    "OliaCoupling",
    "OliaCC",
]

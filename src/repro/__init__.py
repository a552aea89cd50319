"""repro — a packet-level reproduction of *Explicit Multipath Congestion
Control for Data Center Networks* (XMP; Cao, Xu, Fu, Dong — CoNEXT 2013).

Public API tour:

* :class:`~repro.sim.Simulator` — the discrete-event engine.
* :class:`~repro.net.Network` — topology container (hosts, switches,
  links, ECN queues); ready-made topologies in :mod:`repro.topology`.
* :class:`~repro.mptcp.MptcpConnection` — a transfer over one or more
  pinned paths with a pluggable scheme: ``"xmp"`` (the paper),
  ``"lia"``, ``"dctcp"``, ``"tcp"``, … — any row of
  :data:`repro.mptcp.coupling.SCHEMES`.
* :mod:`repro.core` — the paper's algorithms (BOS, TraSh) and the
  closed-form model (Eqs. 1-9).
* :mod:`repro.traffic` — the paper's Permutation / Random / Incast
  workloads; :mod:`repro.metrics` — goodput, RTT, utilization, JCT.
* :mod:`repro.experiments` — a driver per paper figure/table.
* :mod:`repro.runner` — the campaign layer all drivers run through:
  :class:`~repro.runner.RunSpec` grids, process-parallel
  :class:`~repro.runner.Campaign` execution, two-tier run caching.

Quickstart::

    from repro import Network, MptcpConnection
    from repro.topology import build_fattree

    net = build_fattree(k=4, marking_threshold=10)
    paths = net.paths("h_0_0_0", "h_2_1_1")
    conn = MptcpConnection(net, "h_0_0_0", "h_2_1_1", paths[:2],
                           scheme="xmp", size_bytes=10_000_000)
    conn.start()
    net.sim.run(until=2.0)
    print(conn.goodput_bps() / 1e6, "Mbps")
"""

from repro.sim import Simulator
from repro.net import Network
from repro.mptcp import MptcpConnection
from repro.core import BosCC
from repro.transport import DctcpCC, RenoCC

__version__ = "1.1.0"

__all__ = [
    "Simulator",
    "Network",
    "MptcpConnection",
    "BosCC",
    "DctcpCC",
    "RenoCC",
    "__version__",
]

"""Topology builders for every network the paper evaluates on.

* :func:`~repro.topology.bottleneck.build_single_bottleneck` — N host
  pairs sharing one link (Fig. 1 convergence, Fig. 3(b)/Fig. 6 fairness),
  each pair at one shared or its own no-load RTT.
* :func:`~repro.topology.testbed.build_shifting_testbed` — the Fig. 3(a)
  two-bottleneck testbed for traffic shifting (Fig. 4).
* :func:`~repro.topology.torus.build_torus` — the Fig. 5 ring of five
  bottlenecks for rate compensation (Fig. 7).
* :func:`~repro.topology.fattree.build_fattree` — the k-ary fat tree used
  for the DCN evaluation (Figs. 8-11, Tables 1-3).
"""

from repro.topology.bottleneck import BottleneckNetwork, build_single_bottleneck
from repro.topology.testbed import build_shifting_testbed
from repro.topology.torus import build_torus
from repro.topology.fattree import FatTreeNetwork, build_fattree

__all__ = [
    "BottleneckNetwork",
    "build_single_bottleneck",
    "build_shifting_testbed",
    "build_torus",
    "FatTreeNetwork",
    "build_fattree",
]

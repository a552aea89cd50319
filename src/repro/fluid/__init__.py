"""The fluid simulation backend: long-lived flows as ODEs over a topology.

The packet engine (``repro.sim`` + ``repro.net``) simulates every
segment; this package simulates the *fluid limit* of the same system —
per-subflow window ODEs (paper Eq. 2, extended with TraSh coupling,
Eq. 9) coupled to per-link queue/marking state extracted from the same
``repro.topology`` builders and path enumeration the packet engine uses,
into a :class:`FluidModel` of flat per-link and per-subflow columns.
A :class:`~repro.fluid.backend.FluidScenario` is a frozen RunSpec config
like any packet scenario, so fluid cells flow through the same
Campaign/cache/telemetry machinery (``kind="fluid"``).  Its result holds
only the steady-state tail means every reader takes, folded as the solver
streams; :func:`integrate_model` returns a whole :class:`FluidTrajectory`.

Fidelity contract: the fluid backend reproduces *steady-state* windows,
queues and per-flow rates of long-lived flows (cross-validated against
the packet engine in ``repro.fluid.crosscheck`` within documented
tolerances); it does not model per-packet effects — retransmission
timeouts, slow start, incast synchronization.  Use it where the packet
engine cannot go: k=16/k=32 fat trees with 10^4-10^6 concurrent flows.

Each scheme's law is written once, in its row of
:data:`repro.mptcp.coupling.SCHEMES`: per-flow reductions and one drift
expression that both solvers evaluate, calling the increase the packet
controllers are handed (:mod:`repro.fluid.laws`).  The paper's own Eq. 2
is the ``bos-uncoupled`` row, and its marking knee is
:func:`~repro.fluid.laws.threshold_marking_probability`.
"""

from repro.fluid.backend import FluidResult, FluidScenario
from repro.fluid.model import PACKET_BITS, FluidModel, model_from_network
from repro.fluid.solver import (
    SAMPLE_STRIDE,
    FluidTrajectory,
    integrate_model,
    step_count,
    vector_available,
)

__all__ = [
    "PACKET_BITS",
    "SAMPLE_STRIDE",
    "FluidModel",
    "FluidResult",
    "FluidScenario",
    "FluidTrajectory",
    "integrate_model",
    "model_from_network",
    "step_count",
    "vector_available",
]

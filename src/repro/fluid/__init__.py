"""The fluid simulation backend: long-lived flows as ODEs over a topology.

The packet engine (``repro.sim`` + ``repro.net``) simulates every
segment; this package simulates the *fluid limit* of the same system —
per-subflow window ODEs (paper Eq. 2, extended with TraSh coupling,
Eq. 9) coupled to per-link queue/marking state extracted from the same
``repro.topology`` builders and path enumeration the packet engine uses.
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

Each scheme's law (:mod:`repro.fluid.laws`) is written once: a per-flow
coupling and one drift expression that both solvers evaluate.  The
paper's own Eq. 2 model lives there too (:func:`bos_window_ode`,
:func:`threshold_marking_probability`), beside the two closed-form
integrators (:func:`integrate_single_flow`, :func:`integrate_shared_link`)
the packet simulator is validated against.
"""

from repro.fluid.backend import FluidResult, FluidScenario, run_fluid
from repro.fluid.laws import bos_window_ode, threshold_marking_probability
from repro.fluid.model import (
    PACKET_BITS,
    FluidLink,
    FluidModel,
    FluidSubflow,
    model_from_network,
)
from repro.fluid.solver import (
    SAMPLE_STRIDE,
    FluidTrajectory,
    integrate_model,
    integrate_shared_link,
    integrate_single_flow,
    step_count,
    vector_available,
)

__all__ = [
    "PACKET_BITS",
    "SAMPLE_STRIDE",
    "FluidLink",
    "FluidModel",
    "FluidResult",
    "FluidScenario",
    "FluidSubflow",
    "FluidTrajectory",
    "bos_window_ode",
    "integrate_model",
    "integrate_shared_link",
    "integrate_single_flow",
    "model_from_network",
    "run_fluid",
    "step_count",
    "threshold_marking_probability",
    "vector_available",
]

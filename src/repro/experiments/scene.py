"""One scene type: the testbed and torus experiments as data.

Figs. 1, 4, 6 and 7 and the bottleneck goldens are one program: build a
small topology, open MPTCP connections, start, stop or grow them on a
timetable, sample subflow rates and run to a horizon.  A :class:`Scene`
is that program as frozen, picklable data and :func:`play` runs it::

    scene = Scene(
        "bottleneck", (("num_pairs", 2),),
        flows=(Flow("S0", "D0", (None, None)), Flow("S1", "D1", (None,))),
        script=((0.0, "start", 0), (0.1, "start", 1), (0.3, "stop", 0)),
        horizon=0.4, samples=(("flow1", 0, 0), ("flow2", 1, 0)),
        sample_interval=0.01,
    )
    net, connections, series, events = play(scene)

Ordering is part of the data, because it is part of the bits: flows are
constructed (and get their flow ids) in ``flows`` order, sampler
columns are registered in ``samples`` order, and script rows are posted
in row order, so same-instant rows fire in row order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.metrics.collector import RateSampler
from repro.metrics.series import TimeSeries
from repro.mptcp.connection import MptcpConnection
from repro.net.network import Network
from repro.net.routing import Path
from repro.topology.bottleneck import build_single_bottleneck
from repro.topology.testbed import build_shifting_testbed
from repro.topology.torus import build_torus

#: Topology name -> builder; a scene's ``params`` are its keywords.
TOPOLOGIES = dict(
    bottleneck=build_single_bottleneck,
    testbed=build_shifting_testbed,
    torus=build_torus,
)

#: ``(time, action, target)``.  ``time`` None runs the row as the scene
#: is built, before the clock starts; any other row is posted at
#: ``time``.  ``start``/``stop``/``add_subflow`` target a flow index
#: (a new subflow follows the flow's first route); ``link_down`` takes
#: a link name and closes both directions.
Row = Tuple[Optional[float], str, Any]
#: ``(column, flow index, subflow index)``: one sampled subflow's rate.
#: A subflow that ``add_subflow`` opens is registered when it opens.
Sample = Tuple[str, int, int]


@dataclass(frozen=True)
class Flow:
    """One MPTCP connection, one subflow per route.

    A route is ``None`` (the first shortest path from ``src`` to
    ``dst``) or the name of a link the path must cross (``"A1->B1"``).
    ``size`` is in bytes; ``None`` is a long-lived flow.
    """

    src: str
    dst: str
    routes: Tuple[Optional[str], ...]
    scheme: str = "xmp"
    beta: float = 4.0
    size: Optional[int] = None


@dataclass(frozen=True)
class Scene:
    """A topology, its flows, a script of timed actions and what to sample."""

    #: A key of :data:`TOPOLOGIES` and the keyword arguments of its builder.
    topology: str
    params: Tuple[Tuple[str, Any], ...]
    flows: Tuple[Flow, ...]
    script: Tuple[Row, ...]
    horizon: float
    samples: Tuple[Sample, ...] = ()
    sample_interval: float = 0.0


def route(net: Network, src: str, dst: str, via: Optional[str]) -> Path:
    """The first shortest path from ``src`` to ``dst`` (``via`` None), or
    the first one crossing the link named ``via``."""
    for path in net.paths(src, dst):
        if via is None or any(link.name == via for link in path):
            return path
    raise ValueError(f"no path from {src} to {dst} via {via}")


def play(scene: Scene) -> Tuple[Network, List[MptcpConnection], Optional[TimeSeries], int]:
    """Build and run ``scene`` under whatever probes are active.

    Returns the network, the connections (in ``flows`` order), the
    sampled rate series (None when the scene samples nothing) and the
    number of events processed.
    """
    net = TOPOLOGIES[scene.topology](**dict(scene.params))
    connections = [
        MptcpConnection(
            net, flow.src, flow.dst,
            [route(net, flow.src, flow.dst, via) for via in flow.routes],
            scheme=flow.scheme, size_bytes=flow.size, beta=flow.beta,
        )
        for flow in scene.flows
    ]
    sampler = None
    if scene.samples:
        sampler = RateSampler(net.sim, scene.sample_interval, until=scene.horizon)
        for column, flow, index in scene.samples:
            if index < len(connections[flow].subflows):
                sampler.add_sender(column, connections[flow].subflows[index].sender)
    for time, action, target in scene.script:
        if action in ("start", "stop"):
            callback, args = getattr(connections[target], action), ()
        elif action == "add_subflow":
            callback, args = _add_subflow, (scene, sampler, connections, target)
        elif action == "link_down":
            links = [link for link in net.links if link.name == target]
            if not links:
                raise ValueError(f"no link named {target!r}")
            callback, args = net.set_link_pair_down, (links[0],)
        else:
            raise ValueError(f"unknown scene action {action!r}")
        if time is None:
            callback(*args)
        else:
            net.sim.post(time, callback, *args)
    if sampler is not None:
        sampler.start(scene.sample_interval)
    net.sim.run(until=scene.horizon)
    series = sampler.series if sampler is not None else None
    return net, connections, series, net.sim.events_processed


def _add_subflow(scene: Scene, sampler: Optional[RateSampler],
                 connections: List[MptcpConnection], flow: int) -> None:
    connection = connections[flow]
    subflow = connection.add_subflow(connection.subflows[0].path, start=True)
    for column, sampled, index in scene.samples:
        if (sampled, index) == (flow, subflow.index):
            sampler.add_sender(column, subflow.sender)


__all__ = ["Flow", "Row", "Sample", "Scene", "TOPOLOGIES", "play", "route"]

"""Layer drivers: fixed, deterministic inputs pushed through one layer.

Each driver times one public call pattern with nothing else in the way
and returns a per-operation cost.  The inputs depend on neither seed nor
workload, so a driver's number moves only when its layer's code (or the
host) does; each runs once, in the traced pass of the workload whose
end-to-end time its layer should move, and reads 0 under the others.
``sim.post_fire_ns`` and ``sim.schedule_fire_ns`` carry the two micro
cells of ``benchmarks/engine_bench.py`` so that a later PR can retire
that file against this ledger.

Every driver is run :data:`REPEATS` times and the median is reported.
"""

from __future__ import annotations

import statistics
import time

REPEATS = 3


def post_fire_ns() -> float:
    """Eight self-posting chains, 200 k events: the packet layers' shape."""
    from repro.sim import Simulator

    sim = Simulator()
    post = sim.post
    n = 200_000
    fired = [0]

    def tick() -> None:
        fired[0] += 1
        if fired[0] < n:
            post(1.3e-6, tick)

    for lane in range(8):
        sim.schedule(lane * 1e-7, tick)
    started = time.perf_counter()
    sim.run()
    return (time.perf_counter() - started) / sim.events_processed * 1e9


def schedule_fire_ns() -> float:
    """100 k cancellable events spread far past the near window, then drain."""
    from repro.sim import Simulator

    sim = Simulator()
    schedule = sim.schedule
    n = 100_000

    def noop() -> None:
        pass

    started = time.perf_counter()
    for i in range(n):
        schedule(i * 1e-6, noop)
    sim.run()
    return (time.perf_counter() - started) / n * 1e9


def timer_rearm_ns() -> float:
    """Arm 20 k timers, cancel 90 %, re-arm those later, drain: RTO churn."""
    from repro.sim import Simulator
    from repro.sim.events import Timer

    sim = Simulator()
    n = 20_000

    def expired() -> None:
        pass

    started = time.perf_counter()
    timers = [Timer(sim, expired) for _ in range(n)]
    for i, timer in enumerate(timers):
        timer.start(1e-3 + i * 1e-7)
    for i, timer in enumerate(timers):
        if i % 10:
            timer.cancel()
    for i, timer in enumerate(timers):
        if i % 10:
            timer.start(2e-3 + i * 1e-7)
    sim.run()
    return (time.perf_counter() - started) / n * 1e9


def hop_ns() -> float:
    """Paced packets through a 5-switch chain into a no-op endpoint.

    Cost per packet-hop: link serialization + propagation + switch
    forwarding, with no transport on either end.
    """
    from repro.net import Network
    from repro.net.packet import make_data_packet

    net = Network()
    nodes = [net.add_host("src")]
    nodes += [net.add_switch(f"s{i}") for i in range(5)]
    nodes.append(net.add_host("dst"))
    for a, b in zip(nodes, nodes[1:]):
        net.connect(a, b, rate_bps=1e9, delay=20e-6)
    path = tuple(net.paths("src", "dst")[0])
    source = net.host("src")
    net.host("dst").register(1, 0, lambda packet: None)
    sim = net.sim
    packets = 10_000
    sent = [0]

    def send() -> None:
        source.send(make_data_packet(1, 0, sent[0], sim.now, path, True))
        sent[0] += 1
        if sent[0] < packets:
            sim.post(12e-6, send)  # one 1500 B serialization time: no queueing

    sim.schedule(0.0, send)
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    if net.host("dst").packets_delivered != packets:
        raise RuntimeError("hop driver lost packets")
    return elapsed / (packets * len(path)) * 1e9


def launch_us() -> float:
    """2,000 ``TransferFactory.launch`` calls on an idle k=4 fat tree."""
    import random

    from repro.topology import build_fattree
    from repro.traffic.factory import TransferFactory

    net = build_fattree(k=4)
    rng = random.Random(7)
    factory = TransferFactory(net, "xmp", subflow_count=2, rng=rng)
    hosts = net.host_names
    pairs = [rng.sample(hosts, 2) for _ in range(2_000)]
    started = time.perf_counter()
    for src, dst in pairs:
        factory.launch(src, dst, 30_000)
    return (time.perf_counter() - started) / len(pairs) * 1e6


#: Workload -> the drivers reported under it.
DRIVERS = {
    "fabric_bulk": {"sim.post_fire_ns": post_fire_ns, "net.hop_ns": hop_ns},
    "mice_churn": {
        "sim.schedule_fire_ns": schedule_fire_ns,
        "sim.timer_rearm_ns": timer_rearm_ns,
        "traffic.launch_us": launch_us,
    },
}


def run_for(workload: str) -> dict:
    return {
        name: statistics.median(driver() for _ in range(REPEATS))
        for name, driver in DRIVERS.get(workload, {}).items()
    }

"""Performance microbenchmarks of the simulator core.

Unlike the experiment benches (which run once and print paper tables),
these measure the substrate's raw speed — the number that bounds how much
simulated traffic a wall-clock second buys.  Useful for catching
performance regressions in the event loop, link pipeline or TCP path.
"""

from repro.mptcp.connection import MptcpConnection
from repro.net.link import Link
from repro.net.node import Node
from repro.net.packet import DATA, Packet
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.events import Timer
from repro.topology.bottleneck import build_single_bottleneck


def test_engine_schedule_run_throughput(benchmark):
    """Schedule + fire 10k no-op events."""

    def run():
        sim = Simulator()
        noop = lambda: None
        for i in range(10_000):
            sim.schedule(i * 1e-6, noop)
        sim.run()
        return sim.events_processed

    events = benchmark(run)
    assert events == 10_000


def test_engine_post_chain_over_parked_timers(benchmark):
    """20k events on 8 self-posting lanes while 10k armed ``Timer``s sit
    parked a second out: promotions must not pay for what is merely
    pending (the counted twin is the scaling guard in
    tests/test_sim_calendar_properties.py)."""

    def run():
        sim = Simulator()
        timers = [Timer(sim, lambda: None) for _ in range(10_000)]
        for i, timer in enumerate(timers):
            timer.start(1.0 + i * 1e-6)
        fired = [0]

        def tick():
            fired[0] += 1
            if fired[0] <= 20_000 - 8:
                sim.post(60e-6, tick)

        for lane in range(8):
            sim.post(lane * 1e-6, tick)
        sim.run(until=0.5)
        return sim.events_processed

    events = benchmark(run)
    assert events == 20_000


def test_link_pipeline_throughput(benchmark):
    """Push 5k packets through one link (serialization + propagation)."""

    class Sink(Node):
        __slots__ = ("count",)

        def __init__(self, sim, name):
            super().__init__(sim, name)
            self.count = 0

        def receive(self, packet):
            self.count += 1

    def run():
        sim = Simulator()
        dst = Sink(sim, "dst")
        link = Link(sim, "L", Sink(sim, "src"), dst, 10e9, 1e-6,
                    DropTailQueue(10_000))
        for _ in range(5_000):
            link.enqueue(Packet(DATA, 1500, 0, 0))
        sim.run()
        return dst.count

    delivered = benchmark(run)
    assert delivered == 5_000


def test_tcp_transfer_events_per_second(benchmark):
    """A complete 2 MB XMP transfer over one bottleneck — the end-to-end
    cost per simulated event with the full transport stack engaged."""

    def run():
        net = build_single_bottleneck(num_pairs=1, marking_threshold=10)
        conn = MptcpConnection(net, "S0", "D0", [net.flow_path(0)],
                               scheme="xmp", size_bytes=2_000_000)
        conn.start()
        net.sim.run(until=1.0)
        assert conn.completed
        return net.sim.events_processed

    events = benchmark(run)
    assert events > 10_000

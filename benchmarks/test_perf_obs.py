"""Overhead benchmarks for the observability layer (repro.obs).

Two readings matter:

* ``test_perf_engine.test_engine_schedule_run_throughput`` vs.
  ``test_engine_throughput_profiled`` here is the *enabled* cost of the
  profiler's probe hooks (two calls, two clock reads and one dict
  update per event);
* the ``test_perf_engine`` numbers themselves, tracked across commits,
  guard the *disabled* cost — an unprobed simulator runs the bare loop
  and pays one ``is None`` branch per ``schedule()``, bounded at <3% by
  the zero-cost contract (see OBSERVABILITY.md).
"""

from repro.mptcp.connection import MptcpConnection
from repro.obs import Profiler
from repro.sim.engine import Simulator
from repro.sim.probe import probing
from repro.topology.bottleneck import build_single_bottleneck


def test_engine_throughput_profiled(benchmark):
    """Schedule + fire 10k no-op events under an attached profiler."""

    def run():
        sim = Simulator()
        profiler = Profiler()
        profiler.attach(sim)
        noop = lambda: None
        for i in range(10_000):
            sim.schedule(i * 1e-6, noop)
        sim.run()
        return profiler.snapshot()

    snap = benchmark(run)
    assert snap.events == 10_000
    assert snap.heap.pushes == 10_000


def test_tcp_transfer_profiled(benchmark):
    """The full-stack transfer of ``test_tcp_transfer_events_per_second``
    with profiling on: end-to-end enabled overhead, plus the snapshot."""

    def run():
        with probing(Profiler()) as profiler:
            net = build_single_bottleneck(num_pairs=1, marking_threshold=10)
            conn = MptcpConnection(net, "S0", "D0", [net.flow_path(0)],
                                   scheme="xmp", size_bytes=2_000_000)
            conn.start()
            net.sim.run(until=1.0)
            assert conn.completed
        return net.sim.events_processed, profiler.snapshot()

    events, snap = benchmark(run)
    assert snap.events == events > 10_000
    assert snap.callback_wall_s > 0

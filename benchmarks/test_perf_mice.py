"""Performance microbenchmark of one flow-churn cell, time and memory.

The ledger's ``mice_churn`` ``ws_xmp2`` cell end to end inside the
``workload`` kind: a k=4 fat tree, an open-loop Poisson schedule of
websearch-sized flows at load 0.6 (sizes scaled by 0.02), XMP with two
subflows, 100 ms simulated.  About 3,500 flows are launched and most
finish, so what a finished flow keeps alive is what this cell's memory
grows with.  Wall-clock is the benchmark statistic; further runs record

* ``extra_info["tracemalloc_peak_mb"]`` and ``extra_info["bytes_per_flow"]``
  (that peak over the flows launched), asserted below
  :data:`BYTES_PER_FLOW_BOUND`;
* ``extra_info["peak_pending"]``: the most scheduler records pending at
  once.  Most of them, late in the cell, are finished flows' RTO
  wake-ups (RTOmin is 200 ms, longer than the cell), each one record;
  the open-loop arrivals add one, however many flows are still to come;
* ``extra_info["cyclic_garbage"]``: the objects one ``gc.collect()``
  finds after a run made with the collector disabled, while the cell's
  topology is still held.  The topology is a cycle by construction and
  is freed at the cell boundary; anything else the collection finds is
  what finished flows left behind for it.  A finished flow is acyclic,
  so this is 0.

    PYTHONPATH=src python -m pytest benchmarks/test_perf_mice.py --benchmark-only
"""

import gc
import tracemalloc

from repro.experiments import workload_matrix
from repro.experiments.workload_matrix import WorkloadScenario, _simulate_workload
from repro.sim.probe import Probe, probing

WS_XMP2 = WorkloadScenario(
    scheme="xmp", subflows=2, workload="websearch", arrival="poisson",
    load=0.6, size_scale=0.02, duration=0.1, seed=1,
)

#: Measured 1,208 bytes per launched flow (CPython 3.11, seed 1) once a
#: timer arm and a pending arrival each cost one record; 1,592 when each
#: arm also held an Event and a bound method and every arrival was posted
#: up front.
BYTES_PER_FLOW_BOUND = 1_300


class PeakPending(Probe):
    """Tracks the most records ever pending; observes nothing else."""

    __slots__ = ("peak",)
    kind = "profile"

    def __init__(self) -> None:
        self.peak = 0

    def on_push(self, pending: int) -> None:
        if pending > self.peak:
            self.peak = pending

    def finish(self, context: str = "") -> dict:
        return {"peak_pending": self.peak}


def cyclic_garbage(scenario, monkeypatch):
    """What ``gc.collect()`` finds after ``scenario`` ran with the collector
    off, while the cell's topology (and so every unfinished flow) is held."""
    held = []
    build_cell = workload_matrix.build_cell

    def holding_build_cell(config):
        cell = build_cell(config)
        held.append(cell)
        return cell

    monkeypatch.setattr(workload_matrix, "build_cell", holding_build_cell)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        _simulate_workload(scenario)
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def test_mice_ws_xmp2_cell(benchmark, monkeypatch):
    """``_simulate_workload`` of the ws_xmp2 cell: wall-clock, tracemalloc
    peak, peak bytes per launched flow, peak pending records and cyclic
    garbage."""
    result = benchmark.pedantic(
        _simulate_workload, args=(WS_XMP2,), rounds=3, iterations=1
    )
    assert result.launched_flows > 1_000
    assert result.records

    gc.collect()
    tracemalloc.start()
    try:
        traced = _simulate_workload(WS_XMP2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traced.events == result.events
    benchmark.extra_info["tracemalloc_peak_mb"] = peak / 2**20
    benchmark.extra_info["bytes_per_flow"] = peak / traced.launched_flows
    assert peak / traced.launched_flows < BYTES_PER_FLOW_BOUND

    pending = PeakPending()
    with probing(pending):
        probed = _simulate_workload(WS_XMP2)
    assert probed.events == result.events
    benchmark.extra_info["peak_pending"] = pending.peak

    garbage = cyclic_garbage(WS_XMP2, monkeypatch)
    benchmark.extra_info["cyclic_garbage"] = garbage
    assert garbage == 0

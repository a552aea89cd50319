"""Performance microbenchmark of one flow-churn cell, time and memory.

The ledger's ``mice_churn`` ``ws_xmp2`` cell end to end inside the
``workload`` kind: a k=4 fat tree, an open-loop Poisson schedule of
websearch-sized flows at load 0.6 (sizes scaled by 0.02), XMP with two
subflows, 100 ms simulated.  About 3,500 flows are launched and most
finish, so what a finished flow keeps alive is what this cell's memory
grows with.  Wall-clock is the benchmark statistic; one further traced
run records ``extra_info["tracemalloc_peak_mb"]`` and
``extra_info["bytes_per_flow"]`` (that peak over the flows launched).

    PYTHONPATH=src python -m pytest benchmarks/test_perf_mice.py --benchmark-only
"""

import gc
import tracemalloc

from repro.experiments.workload_matrix import WorkloadScenario, _simulate_workload

WS_XMP2 = WorkloadScenario(
    scheme="xmp", subflows=2, workload="websearch", arrival="poisson",
    load=0.6, size_scale=0.02, duration=0.1, seed=1,
)


def test_mice_ws_xmp2_cell(benchmark):
    """``_simulate_workload`` of the ws_xmp2 cell: wall-clock, tracemalloc
    peak and peak bytes per launched flow."""
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

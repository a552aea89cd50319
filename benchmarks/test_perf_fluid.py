"""Performance microbenchmark of one large fluid cell, time and memory.

The ledger's ``fluid_scale`` ``k16_vec`` cell end to end inside the
``fluid`` kind: build a k=16 fat tree (1,024 hosts, 6,144 links), pin
the two subflows of each of 10,240 permutation flows to distinct paths,
extract the model, and integrate 500 vector-solver steps while folding
the samples into steady-state tail means.  Wall-clock is the benchmark
statistic; the ``tracemalloc`` peak of one further traced run is
recorded beside it as ``extra_info["tracemalloc_peak_mb"]``, and that
peak over the 20,480 subflows as ``extra_info["bytes_per_subflow"]``,
because a cell that holds its network, path lists or trajectory while
integrating shows up there before it shows up in the ledger's
``peak_rss_mb``.

    PYTHONPATH=src python -m pytest benchmarks/test_perf_fluid.py --benchmark-only
"""

import gc
import tracemalloc

import pytest

from repro.fluid import FluidScenario, vector_available
from repro.fluid.backend import _simulate

K16_VEC = FluidScenario(
    scheme="xmp", topology="fattree", flows=10_240, subflows=2,
    duration=0.01, k=16, solver="vector", seed=1,
)

#: 10,240 flows x 2 subflows.
K16_VEC_SUBFLOWS = 20_480

#: 500 Euler steps x (20,480 subflows + 6,144 links).
K16_VEC_EVENTS = 13_312_000


@pytest.mark.skipif(not vector_available(), reason="numpy not installed")
def test_fluid_k16_vec_cell(benchmark):
    """``_simulate`` of the k16_vec cell: wall-clock, tracemalloc peak and
    peak bytes per subflow."""
    result = benchmark.pedantic(_simulate, args=(K16_VEC,), rounds=3, iterations=1)
    assert result.events == K16_VEC_EVENTS

    gc.collect()
    tracemalloc.start()
    try:
        _simulate(K16_VEC)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    benchmark.extra_info["tracemalloc_peak_mb"] = peak / 2**20
    benchmark.extra_info["bytes_per_subflow"] = peak / K16_VEC_SUBFLOWS

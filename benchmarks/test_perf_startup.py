"""Start-up microbenchmark: what a fresh interpreter pays before the first cell.

Two import sets, each timed in a fresh interpreter per round (so the
statistic includes interpreter start-up, which is common to both):

* ``cli`` — ``from repro.cli import main``, what ``python -m repro``
  loads before it parses its arguments;
* ``serial_campaign`` — the imports the ledger's ``run_campaign`` makes
  before a ``fabric_bulk`` campaign (``repro.metrics``, the runner and
  the fat-tree scenario), which a serial campaign runs on.

Wall-clock is the benchmark statistic.  One further child reports its
own numbers: ``extra_info["import_s"]`` (the import alone, in-process),
``extra_info["ru_maxrss_mb"]`` (its peak resident set) and
``extra_info["modules"]`` (``len(sys.modules)`` after the import).
Linux carries ``ru_maxrss`` across ``exec``, so a child spawned straight
from pytest would report pytest's own peak; that one child is started
through a bare launcher interpreter instead.

    PYTHONPATH=src python -m pytest benchmarks/test_perf_startup.py --benchmark-only
"""

import json
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

IMPORTS = {
    "cli": "from repro.cli import main",
    "serial_campaign": (
        "import repro.metrics\n"
        "from repro.runner import Campaign, DiskCache, RunCache, RunSpec\n"
        "from repro.experiments.fattree_eval import FatTreeScenario"
    ),
}

#: Times the import, then reports it with the child's peak RSS and module count.
REPORT = (
    "import json, resource, sys, time\n"
    "t0 = time.perf_counter()\n"
    "{imports}\n"
    "import_s = time.perf_counter() - t0\n"
    "peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "print(json.dumps({{'import_s': import_s, 'modules': len(sys.modules),\n"
    "                  'ru_maxrss_mb': peak_kib / 1024}}))"
)


#: A bare interpreter that runs its argv: the peak it hands on is its own.
LAUNCH = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


def _child(imports: str, launcher: tuple = ()) -> dict:
    result = subprocess.run(
        [*launcher, sys.executable, "-c", REPORT.format(imports=imports)],
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(IMPORTS))
def test_startup_imports(benchmark, name):
    """A fresh interpreter running one import set: wall-clock, and the
    child's own import time, peak RSS and module count."""
    imports = IMPORTS[name]
    _child(imports)  # compile the bytecode caches outside the timed rounds
    benchmark.pedantic(_child, args=(imports,), rounds=7, iterations=1)
    report = _child(imports, launcher=(sys.executable, "-c", LAUNCH))
    assert report["modules"] > 0
    benchmark.extra_info.update(report)

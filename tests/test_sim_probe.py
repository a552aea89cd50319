"""The probe-seam contract (``repro.sim.probe``), in one place.

One file for what used to be four per-package copies: the activation
registry (stack discipline, innermost-per-kind nesting, the ``REPRO_*``
switches), the one lifecycle ``execute()`` gives every kind (built per
cell, finished, reported through ``CellMetrics.probes`` into the run
record), the bracket order a :class:`ProbeSet` fans out in, the
``max_events`` budget on the probed loop, the observe-never-perturb
guarantee with all four probe kinds attached at once, the
never-replace-what-you-watch rule, and the import
hygiene that motivates keeping the seam dependency-free.
"""

from __future__ import annotations

import json
import pickle
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments.fattree_eval import FatTreeScenario
from repro.experiments.fig4_traffic_shifting import Fig4Config
from repro.lint.perf.runtime import AllocMonitor
from repro.lint.race.runtime import RaceMonitor
from repro.net.network import Network
from repro.obs.profiler import Profiler
from repro.obs.records import deterministic_view, run_record
from repro.obs.telemetry import Telemetry
from repro.runner import Campaign, RunResult, RunSpec, execute
from repro.sim import probe as seam
from repro.sim.engine import Simulator
from repro.sim.probe import (
    BRACKET_ORDER,
    Probe,
    ProbeSet,
    activate,
    active,
    deactivate,
    member,
    probing,
    requested,
)
from repro.validate.golden import check_digest
from repro.validate.invariants import InvariantError, Validator
from repro.validate.scenarios import SCENARIOS

SRC = Path(__file__).resolve().parent.parent / "src"

#: The real probe of each kind, as the environment table builds it.
FACTORIES = {
    "validate": Validator,
    "race": RaceMonitor,
    "alloc": AllocMonitor,
    "profile": Profiler,
}


class Recorder(Probe):
    """Logs every engine hook it receives as ``"<kind>.<hook>"``."""

    def __init__(self, kind: str, log: list) -> None:
        self.kind = kind
        self.log = log

    def on_event_fired(self, time, priority, callback, args):
        self.log.append(f"{self.kind}.fired")

    def on_event_settled(self):
        self.log.append(f"{self.kind}.settled")

    def on_push(self, pending):
        self.log.append(f"{self.kind}.push")

    def on_discard(self):
        self.log.append(f"{self.kind}.discard")


# ----------------------------------------------------------------------
# Bracket order
# ----------------------------------------------------------------------


def test_bracket_order_with_all_four_kinds():
    log: list = []
    # Activated in a scrambled order: the bracket order is the seam's,
    # not the caller's.
    recorders = [Recorder(kind, log) for kind in ("alloc", "profile", "validate", "race")]
    with probing(*recorders):
        sim = Network().sim
    assert isinstance(sim.probe, ProbeSet)

    def callback():
        log.append("callback")
        sim.post(1.0, lambda: None)

    cancelled = sim.schedule(0.5, callback)
    sim.schedule(1.0, callback)
    cancelled.cancel()
    del log[:]  # drop the two set-up pushes
    sim.run(until=1.0)

    fired = [f"{kind}.fired" for kind in BRACKET_ORDER]
    pushes = [f"{kind}.push" for kind in BRACKET_ORDER]
    settled = [f"{kind}.settled" for kind in reversed(BRACKET_ORDER)]
    discards = [f"{kind}.discard" for kind in BRACKET_ORDER]
    assert fired == ["validate.fired", "race.fired", "alloc.fired", "profile.fired"]
    assert log == discards + fired + ["callback"] + pushes + settled


def test_single_probe_needs_no_set_and_a_newer_one_of_its_kind_replaces_it():
    log: list = []
    sim = Simulator()
    race, profile = Recorder("race", log), Recorder("profile", log)
    race.attach(sim)
    assert sim.probe is race
    profile.attach(sim)
    assert member(sim.probe, "race") is race
    assert member(sim.probe, "profile") is profile
    assert member(sim.probe, "alloc") is None
    # A second probe of one kind replaces the first, like the old slots.
    newer = Recorder("race", log)
    newer.attach(sim)
    assert member(sim.probe, "race") is newer
    assert member(sim.probe, "profile") is profile
    lone = Simulator()
    profile.attach(lone)
    newest = Recorder("profile", log)
    newest.attach(lone)
    assert lone.probe is newest


# ----------------------------------------------------------------------
# The activation stack
# ----------------------------------------------------------------------


def test_activate_deactivate_stack():
    outer, inner = Validator(), Validator()
    activate(outer)
    try:
        assert active("validate") is outer
        activate(inner)
        assert active("validate") is inner
        deactivate(inner)
        assert active("validate") is outer
    finally:
        deactivate(outer)
    assert active("validate") is None


def test_deactivate_out_of_order_raises():
    outer, inner = Profiler(), RaceMonitor()
    activate(outer)
    activate(inner)
    try:
        with pytest.raises(RuntimeError, match="out of order"):
            deactivate(outer)
        assert active("race") is inner  # stack unchanged
    finally:
        deactivate(inner)
        deactivate(outer)


def test_deactivate_empty_raises():
    with pytest.raises(RuntimeError, match="no probe is active"):
        deactivate()


@pytest.mark.parametrize("kind", BRACKET_ORDER)
def test_nesting_innermost_per_kind(kind):
    """An experiment run inside a probed block gets its own probe, and a
    probe of another kind in between shadows nothing."""
    other = "race" if kind != "race" else "profile"
    outer, inner = FACTORIES[kind](), FACTORIES[kind]()
    assert active(kind) is None and not requested(kind)
    with probing(outer):
        net_outer = Network()
        with probing(FACTORIES[other]()):
            assert active(kind) is outer
            with probing(inner):
                assert active(kind) is inner and requested(kind)
                net_inner = Network()
            assert active(kind) is outer
    assert active(kind) is None
    watching_outer = member(net_outer.sim.probe, kind)
    watching_inner = member(net_inner.sim.probe, kind)
    if kind == "validate":  # a validator watches each sim through an observer
        assert watching_outer.validator is outer
        assert watching_inner.validator is inner
        assert len(outer._sim_observers) == len(inner._sim_observers) == 1
    else:
        assert watching_outer is outer
        assert watching_inner is inner


# ----------------------------------------------------------------------
# The environment table
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", BRACKET_ORDER)
def test_env_switch_requests_probe(kind, monkeypatch):
    """One rule for every kind: the switch makes ``execute`` build a fresh
    probe per cell; it does not by itself attach anything to a ``Network``
    built by hand (that takes ``probing(...)``)."""
    switches = seam.ENV[kind].switches
    for name in switches:
        monkeypatch.delenv(name, raising=False)
    assert not requested(kind)
    for name in switches:
        monkeypatch.setenv(name, "1" if name != "REPRO_TELEMETRY" else "some/dir")
        assert requested(kind)
        assert active(kind) is None
        assert Network().sim.probe is None
        monkeypatch.setenv(name, "0")
        assert not requested(kind)
        monkeypatch.setenv(name, "")
        assert not requested(kind)
    first, second = seam.fresh(kind), seam.fresh(kind)
    assert type(first) is FACTORIES[kind] and first is not second
    first.close()
    second.close()


def test_telemetry_switch_names_the_sink(monkeypatch, tmp_path):
    from repro.obs.telemetry import from_environment

    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    assert from_environment() is None
    monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path))
    assert from_environment().directory == tmp_path
    assert requested("profile")  # telemetry implies profiling


# ----------------------------------------------------------------------
# One lifecycle: execute() builds, finishes and reports every kind
# ----------------------------------------------------------------------

CELL = RunSpec("fattree", FatTreeScenario(duration=0.004))


def _events_in(report):
    """The event count of a finish() report (a dict, or the profile snapshot)."""
    return report["events"] if isinstance(report, dict) else report.events


@pytest.fixture
def switches_off(monkeypatch):
    for row in seam.ENV.values():
        for name in row.switches:
            monkeypatch.delenv(name, raising=False)


@pytest.mark.parametrize("kind", BRACKET_ORDER)
def test_execute_finishes_and_reports_every_requested_kind(kind, monkeypatch, switches_off):
    assert execute(CELL).metrics.probes == {}
    monkeypatch.setenv(seam.ENV[kind].switches[0], "1")
    metrics = execute(CELL).metrics
    assert list(metrics.probes) == [kind]
    assert _events_in(metrics.probes[kind]) == metrics.events > 0
    assert pickle.loads(pickle.dumps(metrics)) == metrics
    # The two readers older than ``probes`` still work.
    assert (metrics.profile is not None) == (kind == "profile")
    assert (metrics.invariant_checks > 0) == (kind == "validate")
    record = run_record(RunResult(CELL, None, metrics))
    assert record["schema"] == 4 and set(record["probes"]) == set(BRACKET_ORDER) - {"profile"}
    json.dumps(record)  # every report is JSON-ready
    if kind == "profile":
        assert record["profile"]["events"] == metrics.events
    else:
        assert record["probes"][kind]["events"] == record["events"]
        assert record["profile"] is None


def test_finish_raises_the_validators_violations_naming_the_cell():
    validator = Validator()
    validator.record("queue-admission", "toy", "planted")
    with pytest.raises(InvariantError, match="1 invariant violation in fattree/XMP-2"):
        validator.finish("fattree/XMP-2")
    assert validator.finished


def test_reports_are_equal_across_jobs_and_written_by_the_parent_only(
    monkeypatch, switches_off, tmp_path
):
    specs = [
        RunSpec("fattree", FatTreeScenario(duration=0.002, scheme=scheme))
        for scheme in ("xmp", "dctcp")
    ]
    for name in ("REPRO_VALIDATE", "REPRO_RACE", "REPRO_ALLOC"):
        monkeypatch.setenv(name, "1")
    views = []
    for jobs in (1, 2):
        sink = Telemetry(tmp_path / f"jobs{jobs}")
        Campaign(jobs=jobs, use_cache=False, telemetry=sink).run(specs)
        records = [json.loads(line) for line in sink.path.read_text().splitlines()]
        assert len(records) == len(specs)  # one per cell, in one file
        assert [path.name for path in sink.directory.iterdir()] == ["runs.jsonl"]
        views.append([deterministic_view(record) for record in records])
    assert views[0] == views[1]
    for view in views[0]:
        probes = view["probes"]
        assert probes["race"]["events"] == probes["alloc"]["events"] == view["events"]
        assert probes["validate"]["checks"] == view["invariant_checks"] > 0
        assert view["profile"]["events"] == view["events"]


def test_race_switch_on_a_clean_fig4_cell_reports_instead_of_staying_silent(
    monkeypatch, switches_off, capsys
):
    """The silent-run regression: a clean sanitized run says it ran."""
    from repro.cli import main

    argv = ["fig4", "--time-scale", "0.002", "--no-cache"]
    assert main(argv) == 0
    assert "[race]" not in capsys.readouterr().out
    monkeypatch.setenv("REPRO_RACE", "1")
    assert main(argv) == 0
    (line,) = [l for l in capsys.readouterr().out.splitlines() if l.startswith("[race]")]
    cells, events, collisions = re.fullmatch(
        r"\[race\] (\d+) cells, (\d+) events, \d+ same-instant batches, (\d+) collisions",
        line,
    ).groups()
    assert (cells, collisions) == ("1", "0") and int(events) > 0
    report = execute(RunSpec("fig4", Fig4Config(time_scale=0.002))).metrics.probes["race"]
    assert report["collisions"] == 0 and report["records"] == []
    assert report["events"] == int(events)


# ----------------------------------------------------------------------
# The probed loop carries the max_events budget
# ----------------------------------------------------------------------


def _budgeted_run(probe, budget):
    sim = Simulator()
    fired = []
    if probe is not None:
        probe.attach(sim)
    for i in range(20):
        event = sim.schedule(i * 1e-3, fired.append, i)
        if i % 5 == 2:
            event.cancel()  # cancelled events never count against the budget
    sim.run(max_events=budget)
    state = (list(fired), sim.now, sim.events_processed, sim.pending_events)
    sim.run()
    return state, fired


@pytest.mark.parametrize("budget", [1, 7, 16, 100])
def test_max_events_stops_at_the_same_event_with_and_without_a_probe(budget):
    bare, bare_all = _budgeted_run(None, budget)
    log: list = []
    probed, probed_all = _budgeted_run(Recorder("profile", log), budget)
    assert bare == probed
    assert bare[2] == min(budget, 16)
    assert bare_all == probed_all == [i for i in range(20) if i % 5 != 2]
    assert log.count("profile.fired") == log.count("profile.settled") == 16


# ----------------------------------------------------------------------
# Observe, never perturb — all four kinds at once
# ----------------------------------------------------------------------


#: The sub-second goldens.  ``python -m repro.lint.smoke`` runs all six
#: under all four probes (and checks that every probe saw every event);
#: what only a test can add is the comparison against a *bare* run.
FAST_GOLDENS = ["bottleneck-xmp", "bottleneck-mixed", "workload-websearch"]


@pytest.mark.invariants
@pytest.mark.parametrize("name", FAST_GOLDENS)
def test_golden_bit_identical_bare_and_fully_probed(name):
    bare = SCENARIOS[name]()
    validator, profiler = Validator(), Profiler()
    race, alloc = RaceMonitor(), AllocMonitor()
    with probing(validator, profiler, race, alloc):
        probed = SCENARIOS[name]()
    validator.finish()
    assert probed == bare
    assert check_digest(name, probed) == []
    assert validator.violations == [] and validator.checks > 0
    assert race.collisions == []


class CallbackCensus(Probe):
    """Counts fired callbacks by ``(module, qualname)``."""

    kind = "profile"

    def __init__(self) -> None:
        self.fired: Counter = Counter()

    def on_event_fired(self, time, priority, callback, args):
        self.fired[callback.__module__, callback.__qualname__] += 1


def test_a_validated_run_fires_exactly_the_callbacks_a_bare_run_fires():
    """A probe never replaces what it watches: the validator sees link
    transmissions and queue traffic without renaming a single callback,
    so every other probe can still recognise them."""
    with probing(CallbackCensus()) as bare:
        SCENARIOS["bottleneck-xmp"]()
    with probing(CallbackCensus(), Validator()) as (watched, validator):
        SCENARIOS["bottleneck-xmp"]()
    validator.finish()
    assert validator.violations == [] and validator.transmitters
    assert watched.fired == bare.fired
    assert bare.fired["repro.net.link", "Link._finish_transmission"] > 0
    tooling = ("repro.validate", "repro.lint", "repro.obs")
    assert not [key for key in watched.fired if key[0].startswith(tooling)]


# ----------------------------------------------------------------------
# Import hygiene: pushing packets loads no tooling
# ----------------------------------------------------------------------


def test_importing_the_model_layers_loads_no_tooling():
    code = (
        "import sys, repro.net, repro.transport, repro.mptcp\n"
        "print([m for m in sorted(sys.modules) if m.startswith("
        "('repro.lint', 'repro.obs', 'repro.validate'))])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


def test_packet_cells_never_import_numpy():
    """numpy is the fluid vector solver's optional dependency; importing
    it costs 11-14 MB, against a packet campaign's ≈23 MB peak RSS
    (ledger ``fabric_bulk``), so the packet path (samplers, series,
    reducers included) must stay clear of it."""
    code = (
        "import sys\n"
        "import repro.metrics\n"
        "from repro.runner import RunSpec, execute\n"
        "from repro.experiments.fattree_eval import FatTreeScenario\n"
        "from repro.experiments.workload_matrix import WorkloadScenario\n"
        "execute(RunSpec('fattree', FatTreeScenario(duration=0.005)))\n"
        "cell = execute(RunSpec('workload', WorkloadScenario(duration=0.005)))\n"
        "assert cell.value.queue_samples['core']\n"
        "print('numpy' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "False"


def test_reference_fluid_cells_never_import_numpy():
    """The fluid model is stdlib columns and the reference solver pure
    Python, so only ``solver="vector"`` may pull numpy in."""
    code = (
        "import sys\n"
        "from repro.runner import RunSpec, execute\n"
        "from repro.fluid import FluidScenario\n"
        "cell = execute(RunSpec('fluid', FluidScenario(\n"
        "    topology='fattree', flows=16, subflows=2, duration=0.002,\n"
        "    solver='reference')))\n"
        "assert cell.value.num_flows == 16\n"
        "print('numpy' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "False"


def _fresh(code, *prefixes):
    """Run ``code`` in a fresh interpreter: (the lines it printed, the
    sorted modules under ``prefixes`` it left in ``sys.modules``)."""
    code += (
        "\nimport sys\n"
        f"print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        capture_output=True, text=True, check=True,
    )
    *printed, imported = result.stdout.splitlines()
    return printed, imported


#: The process-pool stack a forking campaign loads: ≈1.9 MB of start-up.
POOL = ("concurrent.futures", "multiprocessing")


def test_serial_campaigns_never_import_the_process_pool():
    """Only a campaign that forks pays for the pool stack."""
    code = (
        "from repro.runner import Campaign, RunSpec\n"
        "from repro.experiments.fattree_eval import FatTreeScenario\n"
        "from repro.fluid import FluidScenario\n"
        "outcome = Campaign(jobs=1, use_cache=False).run([\n"
        "    RunSpec('fattree', FatTreeScenario(duration=0.005)),\n"
        "    RunSpec('fluid', FluidScenario(duration=0.002, solver='reference'))])\n"
        "assert len(outcome) == 2"
    )
    assert _fresh(code, *POOL)[1] == "[]"


def _table1(jobs):
    """``repro table1`` at a tiny duration, printing its table only."""
    return (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    main(['table1', '--duration', '0.005', '--patterns', 'permutation',\n"
        f"          '--no-cache', '--jobs', '{jobs}'])\n"
        "print(out.getvalue().split('[runner]')[0])"
    )


def test_a_cli_row_imports_only_its_own_drivers():
    """``table1`` builds its own row: no fluid backend, no workload or
    testbed driver, and (serial) no process pool."""
    unwanted = (
        "repro.fluid", "repro.experiments.workload_matrix",
        "repro.experiments.fig1_convergence", *POOL,
    )
    assert _fresh(_table1(1), *unwanted)[1] == "[]"


def test_cli_jobs2_forks_and_prints_the_jobs1_table():
    """``--jobs 2`` still loads the pool, and its table is ``--jobs 1``'s."""
    serial, serial_pool = _fresh(_table1(1), "concurrent.futures.process")
    fanned, fanned_pool = _fresh(_table1(2), "concurrent.futures.process")
    assert any("XMP-4" in line for line in serial)
    assert serial == fanned
    assert (serial_pool, fanned_pool) == ("[]", "['concurrent.futures.process']")

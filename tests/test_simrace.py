"""simrace self-checks: the static priority-tier check, the runtime
sanitizer, and the golden cross-check.

The acceptance bar the detector is held to:

* the static pass (SIM018) is clean on ``src/repro`` (the priority
  audit is complete);
* ``REPRO_RACE``-style monitoring observes without perturbing — golden
  digests stay bit-identical with the sanitizer attached, with zero
  collisions;
* a planted same-instant write-write race is observed dynamically
  (same-instant conflicts are the runtime side's job alone).
"""

import json

import pytest

from repro.lint.race.runtime import RaceMonitor
from repro.lint.sem import ProjectAnalyzer
from repro.obs.records import to_jsonl
from repro.sim.engine import Simulator
from repro.sim.priorities import MODEL, SAMPLE, TIERS, tier_name
from repro.sim.probe import probing

pytestmark = pytest.mark.lint

RACE_CODES = ("SIM018",)


def race_findings(sources):
    analyzer = ProjectAnalyzer()
    return [
        f
        for f in analyzer.analyze_sources(sources)
        if f.code in RACE_CODES
    ]


# ----------------------------------------------------------------------
# The priority registry
# ----------------------------------------------------------------------


def test_priority_tiers():
    """MODEL is the engine default (annotating it never reorders);
    SAMPLE sorts strictly after every model event at its instant."""
    assert MODEL == 0
    assert SAMPLE > MODEL
    assert TIERS == {"MODEL": MODEL, "SAMPLE": SAMPLE}
    assert tier_name(SAMPLE) == "SAMPLE"
    assert tier_name(MODEL) == "MODEL"
    assert tier_name(42) is None


def test_sampler_tier_is_the_registry_value():
    """The metrics sampler priority is the registry constant, not a
    drifted copy (the original sampler bug this pass exists to catch)."""
    from repro.metrics.collector import SAMPLE_PRIORITY

    assert SAMPLE_PRIORITY == SAMPLE


# ----------------------------------------------------------------------
# Static analyzer units
# ----------------------------------------------------------------------


def test_src_tree_is_race_clean():
    """The audited source tree carries no SIM018 findings."""
    analyzer = ProjectAnalyzer()
    findings = [
        f
        for f in analyzer.analyze_paths(["src/repro"])
        if f.code in RACE_CODES
    ]
    assert findings == [], "\n".join(f.format() for f in findings)


def test_periodic_detection_spans_schedule_and_post():
    """Self-rescheduling through either scheduler entry point at an
    unnamed tier is the SIM018 sampler-bug shape."""
    source = '''
class Ticker:
    def __init__(self, sim):
        self.sim = sim

    def tick(self):
        self.sim.post(0.01, self.tick)
'''
    findings = race_findings([("src/repro/x/ticker.py", source)])
    assert [f.code for f in findings] == ["SIM018"]
    assert "periodic" in findings[0].message


def test_unknown_priority_is_never_guessed():
    """An unresolvable priority expression silences the check."""
    source = '''
class Ticker:
    def __init__(self, sim, prio):
        self.sim = sim
        self.prio = prio

    def tick(self):
        self.sim.post(0.01, self.tick, priority=self.prio)
'''
    assert race_findings([("src/repro/x/ticker.py", source)]) == []


# ----------------------------------------------------------------------
# Runtime sanitizer
# ----------------------------------------------------------------------


class _Victim:
    def __init__(self):
        self.value = 0
        self.other = 0

    def write_one(self):
        self.value = 1

    def write_two(self):
        self.value = 2

    def write_other(self):
        self.other = 3

    def read_only(self):
        _ = self.value


def _run_monitored(schedule):
    """Build a sim with a monitor attached, apply ``schedule``, run."""
    monitor = RaceMonitor()
    sim = Simulator()
    monitor.attach(sim)
    victim = _Victim()
    schedule(sim, victim)
    sim.run()
    return monitor


def test_monitor_catches_same_instant_write_write():
    monitor = _run_monitored(lambda sim, v: (
        sim.schedule(0.5, v.write_one),
        sim.schedule(0.5, v.write_two),
    ))
    assert len(monitor.collisions) == 1
    record = monitor.collisions[0]
    assert record["attr"] == "value"
    assert record["first"] == "_Victim.write_one"
    assert record["second"] == "_Victim.write_two"
    assert record["priority"] == 0


def test_monitor_ignores_distinct_instants():
    monitor = _run_monitored(lambda sim, v: (
        sim.schedule(0.5, v.write_one),
        sim.schedule(0.6, v.write_two),
    ))
    assert monitor.collisions == []
    assert monitor.batches >= 2


def test_monitor_ignores_distinct_priorities():
    """Different priorities are *ordered* — that is the fix, not a race."""
    monitor = _run_monitored(lambda sim, v: (
        sim.schedule(0.5, v.write_one),
        sim.schedule(0.5, v.write_two, priority=SAMPLE),
    ))
    assert monitor.collisions == []


def test_monitor_ignores_same_callback_repeats():
    """One callback firing twice in a batch is idempotent re-entry, not
    an ordering hazard between two writers."""
    monitor = _run_monitored(lambda sim, v: (
        sim.schedule(0.5, v.write_one),
        sim.schedule(0.5, v.write_one),
    ))
    assert monitor.collisions == []


def test_monitor_ignores_disjoint_attributes_and_reads():
    monitor = _run_monitored(lambda sim, v: (
        sim.schedule(0.5, v.write_one),
        sim.schedule(0.5, v.write_other),
        sim.schedule(0.5, v.read_only),
    ))
    assert monitor.collisions == []


def test_monitor_handles_slotted_receivers():
    class Slotted:
        __slots__ = ("field",)

        def __init__(self):
            self.field = 0

        def set_a(self):
            self.field = 1

        def set_b(self):
            self.field = 2

    monitor = RaceMonitor()
    sim = Simulator()
    monitor.attach(sim)
    victim = Slotted()
    sim.schedule(0.5, victim.set_a)
    sim.schedule(0.5, victim.set_b)
    sim.run()
    assert [r["attr"] for r in monitor.collisions] == ["field"]


def test_monitor_writes_jsonl_report():
    """``finish()`` is the one report: totals plus every collision, and it
    goes to JSONL as it stands (the run record embeds it)."""
    monitor = _run_monitored(lambda sim, v: (
        sim.schedule(0.5, v.write_one),
        sim.schedule(0.5, v.write_two),
    ))
    report = monitor.finish("unit")
    assert report["collisions"] == 1 and report["records"] == monitor.collisions
    assert report["events"] == monitor.events == 2
    assert report["batches"] == 1
    assert json.loads(to_jsonl([report])) == report


def test_network_attaches_active_monitor():
    from repro.net.network import Network

    with probing(RaceMonitor()) as monitor:
        net = Network()
    assert net.sim.probe is monitor
    net2 = Network()
    assert net2.sim.probe is None


# ----------------------------------------------------------------------
# Golden cross-check
# ----------------------------------------------------------------------


def test_sanitizer_leaves_golden_digest_bit_identical():
    """The monitor observes, never perturbs: the bottleneck golden is
    bit-identical with the sanitizer attached, with zero collisions."""
    from repro.validate.golden import check_digest
    from repro.validate.scenarios import run_scenario

    with probing(RaceMonitor()) as monitor:
        digest, validator = run_scenario("bottleneck-xmp")
    assert monitor.collisions == []
    assert monitor.events > 0
    assert validator.violations == []
    assert check_digest("bottleneck-xmp", digest) == []

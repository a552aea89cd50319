"""simperf self-checks: static hot-path analysis, allocation sanitizer,
golden cross-check, and static/dynamic agreement.

The acceptance bar the pass is held to:

* the static pass is clean on ``src/repro`` — every allocation on a
  registered hot path is either hoisted or carries a reasoned
  ``# simperf: allow-alloc(...)`` waiver;
* ``REPRO_ALLOC``-style monitoring observes without perturbing — golden
  digests stay bit-identical with the sanitizer attached;
* every dynamically observed allocator has a static explanation
  (an allocation site reachable in its summary call graph), and the two
  sides agree in the positive direction: a planted per-event allocation
  is flagged by SIM019 *and* attributed by the monitor;
* the rule catalog, the CLI and LINTING.md agree on the 10 surviving
  rules (thirteen codes are retired, none reused).
"""

import json
import re
import tempfile
from pathlib import Path

import pytest

from repro.lint.perf.analyzer import check_perf, explained_hot_functions
from repro.lint.perf.hotpaths import HotPathError, HotPathRegistry
from repro.lint.perf import runtime
from repro.lint.perf.runtime import SCALAR_NOISE_BYTES, AllocMonitor
from repro.lint.registry import catalog, known_codes
from repro.lint.sem import ProjectAnalyzer
from repro.lint.smoke import tree_summaries
from repro.obs.records import to_jsonl
from repro.sim.engine import Simulator
from repro.sim.probe import probing

pytestmark = pytest.mark.lint

PERF_CODES = frozenset(e.code for e in catalog() if e.kind == "perf")


def registry_from(text):
    """A hot-path registry loaded, as the program loads one, from a file
    holding ``text``."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "hotpaths.toml"
        path.write_text(text, encoding="utf-8")
        return HotPathRegistry.load(path)


def perf_findings(sources, registry):
    analyzer = ProjectAnalyzer()
    analyzer.hotpaths = registry
    return [
        f
        for f in analyzer.analyze_sources(sources)
        if f.code in PERF_CODES
    ]


# ----------------------------------------------------------------------
# The hot-path registry
# ----------------------------------------------------------------------


def test_checked_in_registry_loads_and_is_reasoned():
    registry = HotPathRegistry.load()
    assert len(registry) > 0
    for qname, reason in registry.items():
        assert qname.startswith("repro."), qname
        assert reason.strip(), f"{qname} has an empty reason"
    assert list(registry.items()) == list(HotPathRegistry.load().items())


def test_registry_rejects_malformed_entries():
    with pytest.raises(HotPathError):
        registry_from('[not-a-dotted-name]\nreason = "x"\n')
    with pytest.raises(HotPathError):
        registry_from('[a.b]\n')  # missing reason
    with pytest.raises(HotPathError):
        registry_from('[a.b]\nreason = ""\n')
    with pytest.raises(HotPathError):
        registry_from(
            '[a.b]\nreason = "x"\n[a.b]\nreason = "y"\n'
        )


def test_registry_entries_resolve_to_real_functions():
    """Every registered hot path exists in the analyzed tree — a rename
    cannot silently detach the rules from the function they protect."""
    known = set()
    for summary in tree_summaries():
        module = str(summary["module"])
        for qname in summary.get("functions", {}):
            known.add(f"{module}.{qname}")
    registry = HotPathRegistry.load()
    missing = [qname for qname, _reason in registry.items()
               if qname not in known]
    assert missing == [], f"hotpaths.toml names unknown functions: {missing}"


# ----------------------------------------------------------------------
# Static pass
# ----------------------------------------------------------------------


def test_src_tree_is_perf_clean():
    """The audited source tree carries no SIM019/SIM020 findings: every
    hot-path allocation is hoisted or carries a reasoned waiver."""
    analyzer = ProjectAnalyzer()
    findings = [
        f
        for f in analyzer.analyze_paths(["src/repro"])
        if f.code in PERF_CODES
    ]
    assert findings == [], "\n".join(f.format() for f in findings)


PLANTED_ALLOC = '''
class Pump:
    def __init__(self):
        self.log = []

    def on_event(self, seq):
        self.log.append([seq, seq + 1])

    def prime(self, sim):
        sim.schedule(0.0, self.on_event)
'''

PLANTED_REGISTRY = registry_from(
    '[repro.x.pump.Pump.on_event]\nreason = "planted hot path"\n'
)


def test_planted_hot_allocation_is_flagged():
    findings = perf_findings(
        [("src/repro/x/pump.py", PLANTED_ALLOC)], PLANTED_REGISTRY
    )
    assert [f.code for f in findings] == ["SIM019"]
    assert "repro.x.pump.Pump.on_event" in findings[0].message
    assert "planted hot path" in findings[0].message


def test_unregistered_function_is_not_held_hot():
    empty = registry_from("# no hot paths\n")
    assert perf_findings(
        [("src/repro/x/pump.py", PLANTED_ALLOC)], empty
    ) == []


def test_check_perf_defaults_to_checked_in_registry():
    """check_perf() with no explicit registry joins against the real
    hotpaths.toml — the planted module is outside it, hence clean."""
    from repro.lint.sem.summary import build_summary

    summary = build_summary("src/repro/x/pump.py", PLANTED_ALLOC)
    assert check_perf([summary]) == []


def test_explained_closure_is_generous():
    """The planted allocator is explained (for the dynamic cross-check)
    even though SIM019 flags it — explanation is about attribution, not
    approval."""
    from repro.lint.sem.summary import build_summary

    summary = build_summary("src/repro/x/pump.py", PLANTED_ALLOC)
    explained = explained_hot_functions([summary], PLANTED_REGISTRY)
    assert explained == {"repro.x.pump.Pump.on_event"}


# ----------------------------------------------------------------------
# Runtime sanitizer
# ----------------------------------------------------------------------


class _Victim:
    """Module-level so bound methods carry stable dotted qnames."""

    def __init__(self):
        self.log = []
        self.count = 10**9  # far outside the small-int cache

    def alloc_per_event(self):
        # 64 slots: the 512-byte item buffer is malloc'd (never
        # free-listed like a small list header), so every firing shows
        # a traced delta safely above the scalar noise floor.
        self.log.append([0] * 64)

    def scalar_only(self):
        self.count += 1

    def no_op(self):
        pass


def _victim_registry(*methods):
    text = "".join(
        f'[{_Victim.__module__}.{_Victim.__qualname__}.{name}]\n'
        f'reason = "test victim"\n'
        for name in methods
    )
    return registry_from(text)


def _run_monitored(monitor, schedule, events=200):
    sim = Simulator()
    monitor.attach(sim)
    victim = _Victim()
    for i in range(events):
        schedule(sim, victim, i)
    sim.run()
    monitor.close()
    return monitor


def _dotted(name):
    return f"{_Victim.__module__}.{_Victim.__qualname__}.{name}"


def test_monitor_attributes_structural_allocation():
    monitor = _run_monitored(
        AllocMonitor(registry=_victim_registry("alloc_per_event")),
        lambda sim, v, i: sim.schedule(i * 1e-3, v.alloc_per_event),
    )
    dotted = _dotted("alloc_per_event")
    assert monitor.allocators() == [dotted]
    entry = monitor.stats[dotted]
    assert entry["events"] == 200
    assert entry["alloc_events"] > 100
    assert entry["bytes"] > 0
    assert monitor.hot_events == 200


def test_scalar_boxing_is_below_the_noise_floor():
    """Pure counter arithmetic boxes one PyLong per event; the
    SCALAR_NOISE_BYTES floor keeps that from reading as allocation."""
    assert SCALAR_NOISE_BYTES == 32
    monitor = _run_monitored(
        AllocMonitor(registry=_victim_registry("scalar_only")),
        lambda sim, v, i: sim.schedule(i * 1e-3, v.scalar_only),
    )
    assert monitor.allocators() == []
    entry = monitor.stats[_dotted("scalar_only")]
    assert entry["events"] == 200


def test_unregistered_callbacks_are_not_traced():
    monitor = _run_monitored(
        AllocMonitor(registry=_victim_registry("no_op")),
        lambda sim, v, i: sim.schedule(i * 1e-3, v.alloc_per_event),
    )
    assert monitor.stats == {}
    assert monitor.hot_events == 0
    assert monitor.events == 200


def test_trace_all_covers_unregistered_callbacks():
    """Micro-cell mode: every callback is attributed, registry or not."""
    monitor = _run_monitored(
        AllocMonitor(
            registry=registry_from("# empty\n"), trace_all=True
        ),
        lambda sim, v, i: sim.schedule(i * 1e-3, v.no_op),
    )
    assert _dotted("no_op") in monitor.stats
    assert monitor.allocators() == []


def test_majority_ratio_separates_warmup_from_structural(monkeypatch):
    monitor = AllocMonitor(registry=registry_from("# empty\n"))
    monitor.stats["a.warmup"] = {"events": 100, "alloc_events": 3,
                                 "bytes": 4096}
    monitor.stats["a.structural"] = {"events": 100, "alloc_events": 99,
                                     "bytes": 6400}
    assert monitor.allocators() == ["a.structural"]
    monkeypatch.setattr(runtime, "ALLOCATOR_MIN_RATIO", 0.01)
    assert monitor.allocators() == [
        "a.structural", "a.warmup"
    ]
    monitor.close()


def test_monitor_writes_jsonl_report():
    """``finish()`` is the one report: totals plus per-function stats, and
    it goes to JSONL as it stands (the run record embeds it)."""
    monitor = _run_monitored(
        AllocMonitor(registry=_victim_registry("alloc_per_event")),
        lambda sim, v, i: sim.schedule(i * 1e-3, v.alloc_per_event),
    )
    report = monitor.finish("unit")
    dotted = _dotted("alloc_per_event")
    assert report["functions"] == {dotted: monitor.stats[dotted]}
    assert report["allocators"] == [dotted]
    assert report["events"] == report["hot_events"] == 200
    assert json.loads(to_jsonl([report])) == report


def test_network_attaches_active_monitor():
    from repro.net.network import Network

    with probing(AllocMonitor()) as monitor:
        net = Network()
    assert net.sim.probe is monitor
    net2 = Network()
    assert net2.sim.probe is None


# ----------------------------------------------------------------------
# Golden cross-check + static/dynamic agreement
# ----------------------------------------------------------------------


def test_sanitizer_leaves_golden_digest_bit_identical():
    """The monitor observes, never perturbs: the bottleneck golden is
    bit-identical with the sanitizer attached, and every observed
    allocator has a static explanation."""
    from repro.validate.golden import check_digest
    from repro.validate.scenarios import run_scenario

    with probing(AllocMonitor()) as monitor:
        digest, validator = run_scenario("bottleneck-xmp")
    assert validator.violations == []
    assert check_digest("bottleneck-xmp", digest) == []
    assert monitor.events > 0
    assert monitor.hot_events > 0
    unexplained = set(monitor.allocators()) - explained_hot_functions(
        tree_summaries(), monitor.registry
    )
    assert unexplained == set()


def test_static_and_dynamic_agree_on_planted_allocation():
    """The same planted shape trips both sides: SIM019 statically, an
    attributed majority allocator dynamically."""
    static = perf_findings(
        [("src/repro/x/pump.py", PLANTED_ALLOC)], PLANTED_REGISTRY
    )
    assert [f.code for f in static] == ["SIM019"]
    monitor = _run_monitored(
        AllocMonitor(registry=_victim_registry("alloc_per_event")),
        lambda sim, v, i: sim.schedule(i * 1e-3, v.alloc_per_event),
    )
    assert monitor.allocators() == [_dotted("alloc_per_event")]


# ----------------------------------------------------------------------
# Catalog sync: registry <-> SARIF <-> LINTING.md
# ----------------------------------------------------------------------


def test_catalog_spans_the_full_ladder():
    """The 5 surviving rules, one entry per code in code order, the
    eighteen retired codes absent and not reused, each entry tagged with
    the analysis that reports it."""
    entries = catalog()
    codes = [entry.code for entry in entries]
    retired = {1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 16, 17, 21, 22, 23}
    assert codes == [
        f"SIM{n:03d}" for n in range(1, 24) if n not in retired
    ]
    assert len(codes) == 5
    assert known_codes() == frozenset(codes)
    assert PERF_CODES == {"SIM019", "SIM020"}
    kinds = {entry.kind for entry in entries}
    assert kinds == {"syntactic", "race", "perf"}


def test_sarif_driver_catalog_matches_registry(tmp_path, capsys):
    from repro.lint.cli import main as lint_main

    (tmp_path / "ok.py").write_text(
        "def helper(x):\n    return x + 1\n", encoding="utf-8"
    )
    assert lint_main(["--format", "sarif", str(tmp_path)]) == 0
    log = json.loads(capsys.readouterr().out)
    rules = log["runs"][0]["tool"]["driver"]["rules"]
    assert [r["id"] for r in rules] == [e.code for e in catalog()]


def test_linting_doc_documents_every_rule():
    from pathlib import Path

    text = (Path(__file__).parent.parent / "LINTING.md").read_text(
        encoding="utf-8"
    )
    for entry in catalog():
        assert entry.code in text, f"LINTING.md is missing {entry.code}"
        assert entry.name in text, (
            f"LINTING.md is missing the name {entry.name!r} ({entry.code})"
        )
    # The catalog tables (rows of code + backticked name; the audit
    # table's rows carry no name) list exactly the surviving rules.
    listed = re.findall(r"^\| (SIM\d{3}) \| `([a-z-]+)` \|", text, re.MULTILINE)
    assert listed == [(entry.code, entry.name) for entry in catalog()]

"""Hazard mutants: what each lint rule catches that the runtime ladder does not.

Every row of :data:`MUTANTS` plants one hazard in a lint rule's own shape
at a real site of ``src/repro``: an unseeded draw, a host-clock read, a
rate in a delay slot, a renamed probe hook.  For each row the script
copies the tree to a temporary directory (the working tree is never
touched), applies the one textual replacement there, and asks two
questions of the copy:

1. does ``python -m repro.lint src/repro`` report the row's code in the
   mutated file?  A row its own rule does not flag is not in the rule's
   shape, and the table is wrong;
2. which check of the runtime ladder kills it, cheapest first:
   ``python -m repro validate`` (the goldens), then the tier-1 modules
   that import the mutated module, then the rest of the tier-1 suite
   (both with ``-m "not lint" -x``), then ``python -m repro.lint.smoke``.

Rows of the set-order and seed-provenance families (SIM005, SIM013) are
judged under ``PYTHONHASHSEED=0`` and again under ``1``; they count as
killed only when both runs are killed.  Every other row runs under
``PYTHONHASHSEED=0``.  A row that carries an ``equivalent`` reason
behaves identically on every input and is only linted, not judged.

Usage (from the repository root; stdlib only, ~1 h on two cores)::

    python scripts/mutants.py

It writes one line per row to ``benchmarks/results/hazard_kills.txt``:
the rule code, the mutated site, whether the rule flags it, and the
killing check (test id, or golden name and, for a golden that crashes,
the exception type), ``survived``, or ``equivalent: <reason>``.  No
wall time is recorded, so the file changes only when a verdict does.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results" / "hazard_kills.txt"

#: Rows judged under two hash seeds: their hazard is process-dependent.
HASH_SEEDED = frozenset({"SIM005", "SIM013"})
#: Seconds before a ladder step counts as hung (a hang is a kill).
TIMEOUTS = {"validate": 300, "modules": 900, "tier1": 1800, "smoke": 900}
#: Rows judged at once; each runs one subprocess at a time.
WORKERS = 2


class Mutant(NamedTuple):
    """One planted hazard: replace ``old`` (exactly once) by ``new``."""

    code: str
    path: str  # relative to src/repro
    old: str
    new: str
    equivalent: Optional[str] = None


MUTANTS: Tuple[Mutant, ...] = (
    # SIM001 unseeded-random: a draw from the process-global RNG or an
    # unseeded Random().
    Mutant("SIM001", "net/routing.py",
           "return [self._rng.choice(paths) for _ in range(subflow_count)]",
           "return [random.choice(paths) for _ in range(subflow_count)]"),
    Mutant("SIM001", "net/routing.py",
           "self._rng.shuffle(shuffled)",
           "random.shuffle(shuffled)"),
    Mutant("SIM001", "workloads/cdf.py",
           "u = rng.random()",
           "u = random.random()"),
    Mutant("SIM001", "workloads/arrivals.py",
           "return rng.expovariate(self.rate_per_s)",
           "return random.expovariate(self.rate_per_s)"),
    Mutant("SIM001", "workloads/schedule.py",
           "src_index = rng.randrange(len(ordered))",
           "src_index = random.randrange(len(ordered))"),
    Mutant("SIM001", "traffic/random_pattern.py",
           "return self.rng.choice(candidates)",
           "return random.choice(candidates)"),
    # SIM002 wall-clock: a host-clock read where a sim time belongs.
    Mutant("SIM002", "transport/tcp.py",
           "        now = self.sim.now\n",
           "        import time; now = time.monotonic()\n"),
    Mutant("SIM002", "mptcp/connection.py",
           "self.start_time = self.network.sim.now",
           "import time; self.start_time = time.perf_counter()"),
    Mutant("SIM002", "mptcp/connection.py",
           "self.complete_time = self.network.sim.now",
           "import time; self.complete_time = time.time()"),
    Mutant("SIM002", "sim/events.py",
           "        now = sim.now\n",
           "        import time; now = time.monotonic()\n"),
    Mutant("SIM002", "workloads/partition_aggregate.py",
           "self.complete_time = self.pattern.network.sim.now",
           "import time; self.complete_time = time.process_time()"),
    # SIM003 float-time-equality: == / != where an ordering belongs.
    Mutant("SIM003", "sim/events.py",
           "if self._due <= deadline:",
           "if self._due == deadline:"),
    Mutant("SIM003", "sim/events.py",
           "if deadline > now:",
           "if deadline != now:"),
    Mutant("SIM003", "metrics/collector.py",
           "if self.until is not None and self.sim.now > self.until:",
           "if self.until is not None and self.sim.now == self.until:"),
    Mutant("SIM003", "workloads/schedule.py",
           "if now >= duration:",
           "if now == duration:"),
    Mutant("SIM003", "transport/tcp.py",
           "if srtt is None or srtt <= 0:",
           "if srtt is None or srtt == 0:",
           equivalent="an RTT estimate is built from non-negative samples, "
                      "so srtt < 0 never holds and <= 0 and == 0 agree"),
    # SIM004 magic-unit-literal: a bare number in a rate/delay slot.
    Mutant("SIM004", "topology/fattree.py",
           "net.connect(agg, cores[a * half + j], link_rate_bps, CORE_DELAY,",
           "net.connect(agg, cores[a * half + j], link_rate_bps, 40,"),
    Mutant("SIM004", "topology/fattree.py",
           "up, down = net.connect(host, edge, link_rate_bps, RACK_DELAY,",
           "up, down = net.connect(host, edge, 1000, RACK_DELAY,"),
    Mutant("SIM004", "topology/testbed.py",
           "net.connect(host, switches[switch_name], access_rate, hop_delay,",
           "net.connect(host, switches[switch_name], 1e9, hop_delay,",
           equivalent="1e9 is the float gigabits_per_second(1) returns, "
                      "bit for bit"),
    Mutant("SIM004", "topology/torus.py",
           "net.connect(head, tail, capacity, hop_delay,",
           "net.connect(head, tail, capacity, 50e-3,"),
    Mutant("SIM004", "topology/bottleneck.py",
           "net.connect(source, left, access_rate, access_delay,",
           "net.connect(source, left, 10, access_delay,"),
    # SIM005 unordered-iteration: a set's order feeding RNG draws.
    Mutant("SIM005", "traffic/permutation.py",
           "for src, dst in zip(self.hosts, targets):",
           "for src, dst in set(zip(self.hosts, targets)):"),
    Mutant("SIM005", "traffic/permutation.py",
           "for src, dst in zip(self.hosts, targets):",
           "for src, dst in {*zip(self.hosts, targets)} - {(None, None)}:"),
    Mutant("SIM005", "net/routing.py",
           "return [self._rng.choice(paths) for _ in range(subflow_count)]",
           "return [self._rng.choice(paths) for _ in set(range(subflow_count))]",
           equivalent="a set of small ints iterates in ascending order "
                      "under every hash seed"),
    Mutant("SIM005", "net/routing.py",
           "return [self._rng.choice(paths) for _ in range(subflow_count)]",
           "return [self._rng.choice(paths) for _ in frozenset(map(str, range(subflow_count)))]",
           equivalent="the loop variable is unused: every iteration makes "
                      "the same draw, whatever the order"),
    Mutant("SIM005", "workloads/schedule.py",
           "for _ in range(MAX_SCHEDULED_FLOWS):",
           "for _ in {str(n) for n in range(MAX_SCHEDULED_FLOWS)}:",
           equivalent="the loop variable is unused: every iteration makes "
                      "the same draws, whatever the order"),
    # SIM007 mutable-default: one container shared by every call.
    Mutant("SIM007", "net/network.py",
           "    def __init__(self) -> None:\n"
           "        self.sim = Simulator()\n"
           "        self.hosts: Dict[str, Host] = {}\n",
           "    def __init__(self, hosts: Dict[str, Host] = {}) -> None:\n"
           "        self.sim = Simulator()\n"
           "        self.hosts: Dict[str, Host] = hosts\n"),
    Mutant("SIM007", "net/queue.py",
           "    def __init__(self, capacity: int = 100) -> None:\n"
           "        if capacity < 1:\n"
           "            raise ValueError(f\"queue capacity must be >= 1, got {capacity}\")\n"
           "        self.capacity = capacity\n"
           "        self._buffer: Deque[Packet] = deque()\n",
           "    def __init__(self, capacity: int = 100, buffer: Deque[Packet] = deque()) -> None:\n"
           "        if capacity < 1:\n"
           "            raise ValueError(f\"queue capacity must be >= 1, got {capacity}\")\n"
           "        self.capacity = capacity\n"
           "        self._buffer: Deque[Packet] = buffer\n"),
    Mutant("SIM007", "topology/fattree.py",
           "    def __init__(self) -> None:\n"
           "        super().__init__()\n"
           "        self.k = 0\n"
           "        self.host_names: List[str] = []\n",
           "    def __init__(self, host_names: List[str] = []) -> None:\n"
           "        super().__init__()\n"
           "        self.k = 0\n"
           "        self.host_names: List[str] = host_names\n"),
    Mutant("SIM007", "metrics/series.py",
           "def __init__(self, keys: Iterable[Hashable] = ()) -> None:",
           "def __init__(self, keys: Iterable[Hashable] = []) -> None:",
           equivalent="keys is only iterated, never stored or mutated"),
    Mutant("SIM007", "net/packet.py",
           "sack: Tuple[Tuple[int, int], ...] = (),\n        path",
           "sack: Tuple[Tuple[int, int], ...] = [],\n        path",
           equivalent="a packet's sack blocks are replaced, never mutated "
                      "in place, and every caller passes them explicitly"),
    # SIM009 pickle-unsafe-member: a lambda stored on a pickled class.
    Mutant("SIM009", "experiments/fattree_eval.py",
           "    total_dropped: int = 0\n    events: int = 0\n",
           "    total_dropped: int = 0\n    events: int = 0\n"
           "    sort_key: object = lambda record: record.size\n"),
    Mutant("SIM009", "experiments/fig1_convergence.py",
           "    sample_interval: float = 0.05\n",
           "    sample_interval: float = 0.05\n"
           "    share: object = lambda n: 1.0 / n\n"),
    Mutant("SIM009", "runner/spec.py",
           "    spec: RunSpec\n    value: Any\n    metrics: CellMetrics\n",
           "    spec: RunSpec\n    value: Any\n    metrics: CellMetrics\n"
           "    describe: Any = lambda result: result.spec.label()\n"),
    Mutant("SIM009", "experiments/workload_matrix.py",
           "    rto_min: float = 0.200\n    #: Multiplier on every sampled flow size",
           "    rto_min: float = 0.200\n"
           "    rto_for: Any = lambda rtt: max(0.200, 2 * rtt)\n"
           "    #: Multiplier on every sampled flow size"),
    Mutant("SIM009", "experiments/table1_goodput.py",
           "class Table1Result:\n",
           "class Table1Result:\n"
           "    formatter = lambda value: f\"{value:.1f}\"\n",
           equivalent="a class-level attribute is pickled by reference to "
                      "its class, never as a value"),
    # SIM010 swallowed-exception: a broad handler that does nothing.
    Mutant("SIM010", "net/node.py",
           "        try:\n"
           "            link = packet.path[hop]\n"
           "        except IndexError:\n"
           "            raise _no_next_hop(self, packet) from None\n"
           "        packet.hop = hop + 1\n"
           "        return link.enqueue(packet)\n\n"
           "    def __repr__",
           "        try:\n"
           "            link = packet.path[hop]\n"
           "        except Exception:\n"
           "            pass\n"
           "        packet.hop = hop + 1\n"
           "        return link.enqueue(packet)\n\n"
           "    def __repr__"),
    Mutant("SIM010", "mptcp/connection.py",
           "            if self.on_complete is not None:\n"
           "                self.on_complete(self, self.complete_time)\n",
           "            if self.on_complete is not None:\n"
           "                try:\n"
           "                    self.on_complete(self, self.complete_time)\n"
           "                except Exception:\n"
           "                    pass\n"),
    Mutant("SIM010", "runner/registry.py",
           "    except KeyError:\n"
           "        known = \", \".join(sorted(_KINDS))\n",
           "    except Exception:\n"
           "        pass\n"
           "    if name not in _KINDS:\n"
           "        known = \", \".join(sorted(_KINDS))\n",
           equivalent="the lookup falls through to a membership test that "
                      "raises the same KeyError with the same message"),
    Mutant("SIM010", "runner/cache.py",
           "        except (OSError, pickle.PicklingError):",
           "        except Exception:"),
    Mutant("SIM010", "experiments/fattree_eval.py",
           "        if self.pattern == \"incast\":\n"
           "            check_rounds(hosts, SERVERS_PER_JOB, CONCURRENT_JOBS)\n",
           "        if self.pattern == \"incast\":\n"
           "            try:\n"
           "                check_rounds(hosts, SERVERS_PER_JOB, CONCURRENT_JOBS)\n"
           "            except Exception:\n"
           "                pass\n"),
    # SIM011 unit-sink-mismatch: a value of one dimension in a slot
    # declared for another.
    Mutant("SIM011", "topology/fattree.py",
           "net.connect(agg, cores[a * half + j], link_rate_bps, CORE_DELAY,",
           "net.connect(agg, cores[a * half + j], CORE_DELAY, link_rate_bps,"),
    Mutant("SIM011", "topology/fattree.py",
           "net.connect(edge, agg, link_rate_bps, AGGREGATION_DELAY,",
           "net.connect(edge, agg, AGGREGATION_DELAY, AGGREGATION_DELAY,"),
    Mutant("SIM011", "topology/testbed.py",
           "hop_delay = rtt / 6.0",
           "hop_delay = gigabits_per_second(rtt / 6.0)"),
    Mutant("SIM011", "topology/torus.py",
           "access_rate = gigabits_per_second(10)",
           "access_rate = rtt * 10"),
    Mutant("SIM011", "topology/testbed.py",
           "switches[f\"A{i}\"], switches[f\"B{i}\"], bottleneck_rate_bps,\n"
           "            hop_delay,",
           "switches[f\"A{i}\"], switches[f\"B{i}\"], hop_delay,\n"
           "            bottleneck_rate_bps,"),
    Mutant("SIM011", "topology/fattree.py",
           "up, down = net.connect(host, edge, link_rate_bps, RACK_DELAY,",
           "up, down = net.connect(host, edge, seconds(link_rate_bps), RACK_DELAY,",
           equivalent="seconds() is the identity: the rate reaches connect() "
                      "unchanged, only its declared dimension is wrong"),
    # SIM012 unit-unsafe-arithmetic: +/- across dimensions, rate x rate.
    Mutant("SIM012", "net/link.py",
           "        self.delay = delay\n",
           "        self.delay = delay + rate_bps\n"),
    Mutant("SIM012", "topology/testbed.py",
           "hop_delay = rtt / 6.0",
           "hop_delay = rtt / 6.0 + bottleneck_rate_bps"),
    Mutant("SIM012", "topology/torus.py",
           "access_rate = gigabits_per_second(10)",
           "access_rate = gigabits_per_second(10) + rtt"),
    Mutant("SIM012", "topology/fattree.py",
           "up, down = net.connect(host, edge, link_rate_bps, RACK_DELAY,",
           "up, down = net.connect(host, edge, link_rate_bps - RACK_DELAY, RACK_DELAY,"),
    Mutant("SIM012", "topology/testbed.py",
           "access_rate = gigabits_per_second(1)",
           "access_rate = gigabits_per_second(1) * bottleneck_rate_bps"),
    # SIM013 seed-provenance: an RNG seeded from per-process entropy.
    Mutant("SIM013", "experiments/fattree_eval.py",
           "return RandomStreams(scenario.seed), net",
           "return RandomStreams(hash(str(scenario.seed))), net"),
    Mutant("SIM013", "experiments/fattree_eval.py",
           "return RandomStreams(scenario.seed), net",
           "return RandomStreams(id(scenario)), net"),
    Mutant("SIM013", "sim/random.py",
           "stream = random.Random(derived_seed)",
           "stream = random.Random(hash(name))"),
    Mutant("SIM013", "fluid/backend.py",
           "streams = RandomStreams(scenario.seed)",
           "streams = RandomStreams(hash(repr(scenario)))"),
    Mutant("SIM013", "traffic/permutation.py",
           "self.rng = rng",
           "self.rng = random.Random(hash(str(self.hosts)))"),
    Mutant("SIM013", "transport/receiver.py",
           "random.Random(jitter_seed) if ack_jitter > 0",
           "random.Random(hash(str(jitter_seed))) if ack_jitter > 0"),
    # SIM014 hook-conformance: a probe/observer hook call no observer
    # defines.
    Mutant("SIM014", "sim/engine.py",
           "probe.on_discard()",
           "probe.on_discarded()"),
    Mutant("SIM014", "transport/tcp.py",
           "self.observer.on_rto(self)",
           "self.observer.on_timeout(self)"),
    Mutant("SIM014", "transport/tcp.py",
           "observer.on_ack(",
           "observer.on_acked("),
    Mutant("SIM014", "sim/engine.py",
           "probe.on_promote(size)",
           "probe.on_promoted(size)"),
    Mutant("SIM014", "sim/engine.py",
           "            self.probe.on_push(self.pending_events)\n\n    def post_at(",
           "            self.probe.on_pushed(self.pending_events)\n\n    def post_at("),
    Mutant("SIM014", "sim/engine.py",
           "probe.on_event_settled()",
           "probe.on_event_done()"),
    # SIM015 dead-event-handler: a handler nothing references any more.
    Mutant("SIM015", "transport/tcp.py",
           "self.rto_timer = Timer(sim, self._on_rto)",
           "self.rto_timer = Timer(sim, lambda: None)"),
    Mutant("SIM015", "transport/receiver.py",
           "self._delack_timer = Timer(sim, self._on_delack_timeout)",
           "self._delack_timer = Timer(sim, lambda: None)"),
    Mutant("SIM015", "net/link.py",
           "self._serve = self._finish_transmission",
           "self._serve = lambda packet: None"),
    Mutant("SIM015", "mptcp/connection.py",
           "on_delivered=self._on_delivered,",
           "on_delivered=lambda newly: None,"),
    Mutant("SIM015", "transport/tcp.py",
           "host.register(flow, subflow, self._on_packet)",
           "host.register(flow, subflow, lambda packet: None)"),
    # SIM018 unnamed-priority-tier: a periodic callback off its tier.
    Mutant("SIM018", "metrics/collector.py",
           "self.sim.post(delay, self._tick, priority=SAMPLE_PRIORITY)",
           "self.sim.post(delay, self._tick)"),
    Mutant("SIM018", "metrics/collector.py",
           "self.sim.post(self.interval, self._tick, priority=SAMPLE_PRIORITY)",
           "self.sim.post(self.interval, self._tick)"),
    Mutant("SIM018", "metrics/collector.py",
           "self.sim.post(self.interval, self._tick, priority=SAMPLE_PRIORITY)",
           "self.sim.post(self.interval, self._tick, priority=1_000_000)",
           equivalent="1_000_000 is the value of SAMPLE_PRIORITY"),
    Mutant("SIM018", "traffic/random_pattern.py",
           "0.001, self._issue, src, priority=MODEL",
           "0.001, self._issue, src, priority=1"),
    Mutant("SIM018", "traffic/random_pattern.py",
           "0.001, self._issue, src, priority=MODEL",
           "0.001, self._issue, src",
           equivalent="MODEL is the default priority 0"),
)


def mutated_source(row: Mutant, source: str) -> str:
    """``source`` with the row's one replacement made; ValueError otherwise."""
    count = source.count(row.old)
    if count != 1:
        raise ValueError(
            f"{row.code} {row.path}: text to replace occurs {count} times"
        )
    return source.replace(row.old, row.new)


def site(row: Mutant, source: str) -> str:
    """``path:line`` of the replaced text in the unmutated source."""
    line = source.count("\n", 0, source.index(row.old)) + 1
    return f"{row.path}:{line}"


def _copy_tree(dest: Path) -> None:
    """The repository at ``dest``, without history or caches."""
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis",
        ".repro-cache", "telemetry",
    ))


def _run(
    tree: Path, argv: Sequence[str], hash_seed: str, timeout: int
) -> Tuple[Optional[int], str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for switch in ("REPRO_PROFILE", "REPRO_VALIDATE", "REPRO_RACE", "REPRO_ALLOC"):
        env.pop(switch, None)
    try:
        done = subprocess.run(
            [sys.executable, *argv], cwd=tree, env=env, timeout=timeout,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    except subprocess.TimeoutExpired:
        return None, ""
    return done.returncode, done.stdout


def _flagged(tree: Path, row: Mutant) -> bool:
    _code, out = _run(tree, ["-m", "repro.lint", "src/repro"], "0", 300)
    prefix = f"src/repro/{row.path}:"
    return any(
        line.startswith(prefix) and f" {row.code} " in f" {line} "
        for line in out.splitlines()
    )


def _importers(tree: Path, module: str) -> List[str]:
    """Tier-1 test files that import ``module`` (dotted), sorted."""
    package, _, leaf = module.rpartition(".")
    pattern = re.compile(
        rf"^\s*(from {re.escape(module)} import|import {re.escape(module)}\b"
        rf"|from {re.escape(package)} import .*\b{re.escape(leaf)}\b)",
        re.MULTILINE,
    )
    return sorted(
        f"tests/{path.name}"
        for path in (tree / "tests").glob("test_*.py")
        if pattern.search(path.read_text())
    )


def _first_failure(out: str) -> str:
    for line in out.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return "collection error"


def _exception_type(out: str) -> str:
    """The exception class a traceback in ``out`` ends with."""
    lines = [line for line in out.splitlines() if line.strip()]
    return lines[-1].split(":")[0].rsplit(".", 1)[-1] if lines else "crash"


def _golden_names() -> List[str]:
    """The goldens in ``python -m repro validate`` order, read off the
    unmutated tree."""
    code, out = _run(
        ROOT, ["-c", "from repro.validate.scenarios import scenario_names; "
                     "print(*scenario_names())"], "0", 60,
    )
    return out.split() if code == 0 else []


def _validate_failure(tree: Path, out: str, hash_seed: str) -> str:
    """The failing golden, and for a crash the exception type.

    A crash aborts the whole suite before any report line, so each golden
    is then run alone to name the first one that crashes.
    """
    if "Traceback (most recent call last):" not in out:
        for line in out.splitlines():
            parts = line.split()
            if len(parts) >= 2 and parts[1] != "ok" and not line.startswith("validate"):
                return parts[0]
        return "crash"
    for name in _golden_names():
        code, alone = _run(
            tree, ["-m", "repro", "validate", name], hash_seed, TIMEOUTS["validate"]
        )
        if code is None:
            return f"{name}: timeout"
        if "Traceback (most recent call last):" in alone:
            return f"{name}: {_exception_type(alone)}"
    return _exception_type(out)


def _ladder(tree: Path, row: Mutant, hash_seed: str) -> str:
    """The first runtime check that fails on the mutated tree, or ``survived``."""
    code, out = _run(tree, ["-m", "repro", "validate"], hash_seed, TIMEOUTS["validate"])
    if code is None:
        return "python -m repro validate (timeout)"
    if code != 0:
        return f"python -m repro validate ({_validate_failure(tree, out, hash_seed)})"
    module = "repro." + row.path[: -len(".py")].replace("/", ".")
    pytest = ["-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
              "-m", "not lint"]
    modules = _importers(tree, module)
    if modules:
        code, out = _run(tree, [*pytest, *modules], hash_seed, TIMEOUTS["modules"])
        if code is None:
            return f"{' '.join(modules)} (timeout)"
        if code not in (0, 5):  # 5: every test there is a lint test
            return _first_failure(out)
    ignores = [f"--ignore={path}" for path in modules]
    code, out = _run(tree, [*pytest, *ignores, "tests"], hash_seed, TIMEOUTS["tier1"])
    if code is None:
        return "tier-1 (timeout)"
    if code != 0:
        return _first_failure(out)
    code, out = _run(tree, ["-m", "repro.lint.smoke"], hash_seed, TIMEOUTS["smoke"])
    if code is None:
        return "python -m repro.lint.smoke (timeout)"
    if code != 0:
        return "python -m repro.lint.smoke"
    return "survived"


def judge(row: Mutant, scratch: Path, index: int) -> str:
    """One result line for ``row``."""
    source = (ROOT / "src" / "repro" / row.path).read_text()
    tree = scratch / f"m{index:03d}"
    _copy_tree(tree)
    try:
        (tree / "src" / "repro" / row.path).write_text(mutated_source(row, source))
        flag = "flagged" if _flagged(tree, row) else "NOT-FLAGGED"
        if row.equivalent is not None:
            verdict = f"equivalent: {row.equivalent}"
        elif row.code in HASH_SEEDED:
            verdict = "; ".join(
                f"PYTHONHASHSEED={seed}: {_ladder(tree, row, seed)}"
                for seed in ("0", "1")
            )
        else:
            verdict = _ladder(tree, row, "0")
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    return f"{row.code} {site(row, source)} {flag} {verdict}"


def main() -> int:
    for row in MUTANTS:  # fail fast on a stale row, before any run
        mutated_source(row, (ROOT / "src" / "repro" / row.path).read_text())
    with tempfile.TemporaryDirectory(prefix="hazard-mutants-") as scratch:
        with ThreadPoolExecutor(WORKERS) as pool:
            futures = [
                pool.submit(judge, row, Path(scratch), index)
                for index, row in enumerate(MUTANTS)
            ]
            lines = []
            for future in futures:
                lines.append(future.result())
                print(lines[-1], flush=True)
    RESULTS.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

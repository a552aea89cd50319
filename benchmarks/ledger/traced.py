"""The traced pass: where one workload's time goes, layer by layer.

Runs inside ``child.py --mode traced`` with ``REPRO_PROFILE=1``.  The
harness performs the campaign steps itself so it can put a span around
each public call (fingerprint, execute, store, load, reduce), reads the
engine profile each executed cell carries, folds its per-callback
buckets into layers named after ``src/repro`` packages, then re-runs the
pieces the program does inside ``execute`` — topology build, path
enumeration and selection, schedule generation, fluid model extraction
and integration — as separately timed public calls, and finally runs the
fixed-input layer drivers.  End-to-end metrics never come from here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time

import child
import drivers

#: Profiler component prefix -> layer.  First match wins; anything left
#: is reported as ``other`` (acceptance: < 1 % of callback time).
LAYER_PREFIXES = (
    ("net.link.", "net.link"),
    ("net.node.Switch.", "net.switch"),
    ("net.node.Host.", "transport.endpoint"),
    ("sim.events.Timer.", "sim.timer"),
    ("workloads.", "traffic.launch"),
    ("traffic.", "traffic.launch"),
    ("metrics.collector.", "metrics.sampler"),
)
LAYERS = tuple(dict.fromkeys(layer for _, layer in LAYER_PREFIXES)) + ("other",)

#: ``HeapStats`` counters that add across cells / that take the maximum.
HEAP_SUMS = {"pushes": "sim.pushes", "promotions": "sim.promotions",
             "far_spills": "sim.far_spills", "compactions": "sim.compactions"}
HEAP_MAXES = {"max_run": "sim.max_run", "peak_size": "sim.peak_pending"}


class Spans:
    """An in-memory span list: name, cell, parent, start, end."""

    def __init__(self) -> None:
        self.rows = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name: str, cell=None):
        row = {"name": name, "cell": cell, "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.rows.append(row)
        self._open.append(len(self.rows) - 1)
        try:
            yield
        finally:
            row["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str, cell=None) -> float:
        return sum(
            row["end"] - row["start"]
            for row in self.rows
            if row["name"] == name and (cell is None or row["cell"] == cell)
        )

    def self_time(self, index: int) -> float:
        """A span's duration minus what its direct child spans cover."""
        row = self.rows[index]
        children = sum(r["end"] - r["start"] for r in self.rows if r["parent"] == index)
        return row["end"] - row["start"] - children


def layer_of(component: str) -> str:
    for prefix, layer in LAYER_PREFIXES:
        if component.startswith(prefix):
            return layer
    return "other"


def fold_profile(profile: dict) -> dict:
    """``{layer: [events, wall_s]}`` from a ``ProfileSnapshot.as_dict()``."""
    folded = {layer: [0, 0.0] for layer in LAYERS}
    for row in profile["components"]:
        bucket = folded[layer_of(row["component"])]
        bucket[0] += row["events"]
        bucket[1] += row["wall_s"]
    return folded


def layer_metrics(cells: dict) -> dict:
    """Fold every traced cell's profile into the per-layer metrics.

    ``cells`` maps cell name to ``{"execute_s", "profile"}`` where
    ``profile`` is an ``as_dict()`` view or ``None`` (fluid cells fire no
    events, so they contribute nothing here).
    """
    metrics = {}
    totals = {layer: [0, 0.0] for layer in LAYERS}
    heap_sums = dict.fromkeys(HEAP_SUMS, 0)
    heap_maxes = dict.fromkeys(HEAP_MAXES, 0)
    events = 0
    execute_s = 0.0
    endpoint_ns = {}
    for cell, trace in cells.items():
        profile = trace["profile"]
        if profile is None:
            continue
        events += profile["events"]
        execute_s += trace["execute_s"]
        folded = fold_profile(profile)
        for layer, (count, wall) in folded.items():
            totals[layer][0] += count
            totals[layer][1] += wall
        count, wall = folded["transport.endpoint"]
        if count:
            endpoint_ns[cell] = wall / count * 1e9
            metrics[f"transport.endpoint_ns.{cell}"] = endpoint_ns[cell]
        for key in heap_sums:
            heap_sums[key] += profile["heap"][key]
        for key in heap_maxes:
            heap_maxes[key] = max(heap_maxes[key], profile["heap"][key])
    if not events:
        return metrics
    for layer, (count, wall) in totals.items():
        if layer == "other":
            metrics["other_s"] = wall
            continue
        metrics[f"{layer}_s"] = wall
        if layer != "metrics.sampler":
            metrics[f"{layer}_events"] = count
    callbacks = sum(wall for _, wall in totals.values())
    # What the event loop itself costs: everything inside execute() that is
    # not a model callback — scheduler pops/promotions, but also scenario
    # construction and the profiler's own clock reads.
    metrics["sim.loop_s"] = execute_s - callbacks
    metrics["sim.loop_ns_per_event"] = (execute_s - callbacks) / events * 1e9
    if "xmp4" in endpoint_ns and "dctcp" in endpoint_ns:
        metrics["mptcp.coupling_ns"] = endpoint_ns["xmp4"] - endpoint_ns["dctcp"]
    for key, name in HEAP_SUMS.items():
        metrics[name] = heap_sums[key]
    for key, name in HEAP_MAXES.items():
        metrics[name] = heap_maxes[key]
    return metrics


# ----------------------------------------------------------------------
# Campaign steps, by hand, under spans.
# ----------------------------------------------------------------------


def trace_campaign(workload, seed, scale, cache_dir, spans, out):
    from repro.runner import DiskCache, RunCache, execute, spec_fingerprint

    import repro.metrics  # noqa: F401 - set-up, as in the untraced call

    specs = child.build_specs(workload, seed, scale)
    cache = RunCache(disk=DiskCache(cache_dir))
    out["ready_t"] = time.monotonic()
    results = {}
    summaries = {}
    with spans.span("campaign"):
        for cell, spec in specs:
            with spans.span("runner.fingerprint", cell):
                spec_fingerprint(spec)
            with spans.span("runner.execute", cell):
                results[cell] = execute(spec)
            with spans.span("runner.store", cell):
                cache.store(spec, results[cell].value)
        for cell, spec in specs:
            with spans.span("metrics.reduce", cell):
                summaries[cell] = child.reduce_cell(spec.kind, results[cell].value)
    fresh = RunCache(disk=DiskCache(cache_dir))
    for cell, spec in specs:
        with spans.span("runner.load", cell):
            if fresh.lookup(spec) is None:
                raise RuntimeError(f"stored result of {cell} did not load back")
    out["cells"] = {
        cell: child.check_cell(spec.kind, results[cell].value, summaries[cell])
        for cell, spec in specs
    }
    if "k4_ref" in results:
        out["solver_agreement"] = solver_agreement(
            results["k4_ref"].value, results["k4_vec"].value
        )
    traces = {}
    for cell, spec in specs:
        profile = results[cell].metrics.profile
        traces[cell] = {
            "execute_s": spans.total("runner.execute", cell),
            "profile": profile.as_dict() if profile is not None else None,
        }
    return [(cell, spec.kind, spec.config) for cell, spec in specs], traces


def trace_cli(seed, scale, cache_dir, spans, out):
    """The CLI is one public call; its cells report through ``--telemetry``."""
    from repro.cli import main
    from repro.experiments.fattree_eval import FatTreeScenario
    from repro.experiments.table1_goodput import scenarios_for

    telemetry = os.path.join(cache_dir, "telemetry")
    argv = child.table1_argv(seed, scale, cache_dir, extra=("--telemetry", telemetry))
    captured = io.StringIO()
    out["ready_t"] = time.monotonic()
    with spans.span("campaign"), contextlib.redirect_stdout(captured):
        main(argv)
    table = child.parse_table1(captured.getvalue(), cold=True)
    out["cells"] = child.table_cells(table)
    traces = {}
    with open(os.path.join(telemetry, "runs.jsonl"), encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            cell = child.cell_name(record["label"].split("/")[1])
            traces[cell] = {"execute_s": record["wall_time_s"], "profile": record["profile"]}
            out["cells"][cell]["events"] = record["events"]
            out["cells"][cell]["wall_s"] = record["wall_time_s"]
    base = FatTreeScenario(duration=0.15 * scale, k=4, seed=seed)
    scenarios = scenarios_for(base, patterns=("permutation",))
    return [(child.cell_name(s.label()), "fattree", s) for s in scenarios], traces


# ----------------------------------------------------------------------
# The layers execute() hides, as separately timed public calls.
# ----------------------------------------------------------------------


def _derangement_rounds(hosts, flows, rng):
    """``flows`` (src, dst) pairs from rounds of fixed-point-free shuffles."""
    from repro.traffic.permutation import random_derangement

    pairs = []
    while len(pairs) < flows:
        pairs.extend(zip(hosts, random_derangement(hosts, rng)))
    return pairs[:flows]


def decompose(cells, seed, spans) -> dict:
    """Time topology build, routing, schedule, fluid model + integration.

    The harness draws its own endpoints from ``seed`` (the program's
    draws are internal), so the *amount* of work matches each cell while
    the exact pairs need not.
    """
    from repro.net import DistinctPathSelector, EcmpSelector
    from repro.topology import build_fattree

    rng = random.Random(seed)
    extra = {}
    for cell, kind, config in cells:
        with spans.span("topology.build", cell):
            net = build_fattree(k=config.k)
        hosts = list(net.host_names)
        if kind == "fattree":
            pairs = _derangement_rounds(hosts, len(hosts), rng)
        elif kind == "fluid":
            pairs = _derangement_rounds(hosts, config.flows, rng)
        elif kind == "incast_sweep":
            pairs = [rng.sample(hosts, 2) for _ in range(config.fan_in * config.concurrent_jobs)]
        else:
            from repro.workloads import (
                build_schedule,
                make_arrivals,
                make_sampler,
                offered_flow_rate,
                workload_capacity_bps,
            )

            sampler = make_sampler(config.workload, config.size_scale)
            rate = offered_flow_rate(
                config.load, workload_capacity_bps(net), sampler.mean_bytes()
            )
            process = make_arrivals(config.arrival, rate, sigma=config.arrival_sigma)
            with spans.span("workloads.schedule", cell):
                schedule = build_schedule(hosts, sampler, process, rng, config.duration)
            pairs = [(arrival.src, arrival.dst) for arrival in schedule]
        selector = DistinctPathSelector(rng) if config.subflows > 1 else EcmpSelector(rng)
        with spans.span("net.routing.paths", cell):
            flow_paths = [
                selector.select(net.paths(src, dst), flow, config.subflows)
                for flow, (src, dst) in enumerate(pairs)
            ]
        if kind != "fluid":
            continue
        from repro.fluid import integrate_model, model_from_network

        with spans.span("fluid.model", cell):
            model = model_from_network(net, flow_paths)
        with spans.span("fluid.integrate", cell):
            trajectory = integrate_model(
                model, config.scheme, duration=config.duration, dt=config.dt,
                beta=config.beta, w0=config.w0, sample_stride=config.sample_stride,
                solver=config.solver,
            )
        integrate_s = spans.total("fluid.integrate", cell)
        extra[f"fluid.integrate_s.{cell}"] = integrate_s
        extra[f"fluid.updates_per_s.{cell}"] = trajectory.state_updates / integrate_s
    return extra


def solver_agreement(reference, vector) -> float:
    """Largest relative reference-vs-vector goodput gap on the k=4 pair."""
    pairs = zip(reference.flow_goodputs_bps(), vector.flow_goodputs_bps())
    return max(abs(r - v) / r for r, v in pairs)


def run(workload: str, seed: int, scale: float, cache_dir: str) -> dict:
    spans = Spans()
    out = {}
    if workload == "table1_cli_jobs2":
        cells, traces = trace_cli(seed, scale, cache_dir, spans, out)
    else:
        cells, traces = trace_campaign(workload, seed, scale, cache_dir, spans, out)
    out["wall_s"] = spans.total("campaign")
    layers = layer_metrics(traces)
    layers.update(decompose(cells, seed, spans))
    for name in ("runner.fingerprint", "runner.execute", "runner.store", "runner.load",
                 "metrics.reduce", "topology.build", "net.routing.paths",
                 "workloads.schedule", "fluid.model"):
        total = spans.total(name)
        if total:
            layers[f"{name}_s"] = total
    if workload == "table1_cli_jobs2":
        layers["runner.execute_s"] = sum(t["execute_s"] for t in traces.values())
    if "solver_agreement" in out:
        layers["fluid.solver_agreement"] = out.pop("solver_agreement")
    layers.update(drivers.run_for(workload))
    out["layers"] = layers
    out["harness_self_s"] = spans.self_time(0)
    out["spans"] = spans.rows
    return out

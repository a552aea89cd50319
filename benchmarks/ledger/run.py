"""The repo benchmark: an end-to-end experiment ledger with per-layer attribution.

One command runs four workloads — whole experiments the way a user of
this repo runs them — measures each from outside in fresh child
processes, checks the simulated outputs, and reports every metric named
in ``BENCHMARK.json`` with its unit::

    python benchmarks/ledger/run.py [--seed N]          # the full ledger -> out/
    python benchmarks/ledger/run.py --selftest          # <1 min harness check
    python benchmarks/ledger/run.py --compare A.json B.json
    python benchmarks/ledger/run.py --bless [--seed N]  # re-pin expected.json

and, for the benchmark driver, one workload per invocation::

    python benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

which prints ``{"correct", "attempted", "failed", "metrics"}`` as its last
stdout line: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  README.md beside this file defines every
metric, says which end-to-end metric each layer metric should move, and
records the measured spreads behind the bounds.

The parent process never imports ``repro``: everything the program does
happens in ``child.py`` children, one per repetition, with every
``REPRO_*`` variable unset, ``PYTHONHASHSEED=0`` and a fresh cache
directory under ``out/`` that is removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"
REFERENCES = HERE / "references.json"

sys.path.insert(0, str(HERE))
import child  # noqa: E402 - stdlib-only at import; shares the workload tables

DEFAULT_SEED = 1
#: Repetitions per workload in ledger mode.
REPS = 5
#: Fewest repetitions behind a driver-mode median, however short ``--seconds``.
MIN_REPS = 3
#: ``setup_s`` is the median of at least this many process starts.
SETUP_SAMPLES = 10
SELFTEST_SCALE = 0.05

#: Per-layer metrics that must repeat exactly between two runs of one
#: commit at one seed (``--compare`` checks them for identity).
EXACT_PREFIXES = ("runner.events", "sim.events.", "sim.pushes", "sim.promotions", "sim.far_spills",
                  "sim.max_run", "sim.peak_pending", "sim.compactions", "model.")
EXACT_SUFFIXES = ("_events",)


def load_json(path: pathlib.Path, default):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return default


# ----------------------------------------------------------------------
# Children.
# ----------------------------------------------------------------------


def child_env(traced: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    env["PYTHONHASHSEED"] = "0"
    if traced:
        env["REPRO_PROFILE"] = "1"
    return env


def spawn(workload: str, seed: int, scale: float, mode: str, cache_dir: str) -> dict:
    """Run one child to completion; its JSON plus ``setup_s`` (or ``crashed``)."""
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--scale", repr(scale), "--mode", mode,
            "--cache-dir", cache_dir]
    started = time.monotonic()
    proc = subprocess.run(argv, env=child_env(mode == "traced"), cwd=ROOT,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        return {"crashed": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"}
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    # CLOCK_MONOTONIC is system-wide on Linux, so the child's reading is
    # comparable with ours: spawn -> about to enter the measured call.
    sample["setup_s"] = sample.pop("ready_t") - started
    return sample


class CacheDir:
    """A fresh cache directory under ``out/``, always removed."""

    def __enter__(self) -> str:
        OUT.mkdir(exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="cache-", dir=OUT)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def run_rep(workload: str, seed: int, scale: float) -> dict:
    with CacheDir() as cache_dir:
        return spawn(workload, seed, scale, "rep", cache_dir)


def setup_spawns(workload: str, seed: int, scale: float, count: int) -> list:
    """``count`` set-up-only children: extra ``setup_s`` samples."""
    with CacheDir() as cache_dir:
        return [spawn(workload, seed, scale, "spawn", cache_dir) for _ in range(count)]


def run_traced(workload: str, seed: int, scale: float) -> dict:
    """One untraced rep, the same call again on its warm cache, one traced pass."""
    with CacheDir() as cache_dir:
        rep = spawn(workload, seed, scale, "rep", cache_dir)
        warm = spawn(workload, seed, scale, "rep", cache_dir)
    with CacheDir() as cache_dir:
        traced = spawn(workload, seed, scale, "traced", cache_dir)
    return {"rep": rep, "warm": warm, "traced": traced}


# ----------------------------------------------------------------------
# Correctness: digests and invariants -> attempted / failed cells.
# ----------------------------------------------------------------------


def expected_digests(workload: str, seed: int, scale: float):
    """Blessed ``{cell: digest}`` for ``seed`` at full scale, else ``None``."""
    if scale != 1.0:
        return None
    return load_json(EXPECTED, {"seeds": {}})["seeds"].get(str(seed), {}).get(workload)


def judge(workload: str, samples: list, expected) -> dict:
    """Count attempted and failed cells over ``samples`` (rep-shaped dicts).

    A cell fails when its child crashed or it raised, when an invariant
    broke, when its digest differs from the blessed one (``expected`` is
    ``{cell: digest}`` or ``None``), or when it differs from the first
    repetition's digest of the same cell.
    """
    cells = child.CELLS[workload]
    failures = []
    first = {}
    for index, sample in enumerate(samples):
        for cell in cells:
            info = sample.get("cells", {}).get(cell)
            if "crashed" in sample:
                failures.append(f"rep {index} {cell}: child crashed: {sample['crashed'][-300:]}")
            elif info is None:
                failures.append(f"rep {index} {cell}: no result")
            elif "error" in info:
                failures.append(f"rep {index} {cell}: {info['error'][:300]}")
            elif expected is not None and info["digest"] != expected.get(cell):
                failures.append(f"rep {index} {cell}: digest differs from expected.json")
            elif first.setdefault(cell, info["digest"]) != info["digest"]:
                failures.append(f"rep {index} {cell}: digest differs between repetitions")
    return {"attempted": len(samples) * len(cells), "failed": len(failures),
            "failures": failures}


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------


def end_to_end_samples(reps: list, spawns: list) -> dict:
    """``{metric: [one value per sample]}`` from the untraced repetitions.

    Only a crashed child has no timings, and ``judge`` fails its cells.
    """
    good = [r for r in reps if "wall_s" in r]
    return {
        "wall_s": [r["wall_s"] for r in good],
        "cpu_s": [r["cpu_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        "setup_s": [s["setup_s"] for s in reps + spawns if "setup_s" in s],
    }


def paper_gap_pct(cells: dict) -> float:
    """Mean |ours - paper| / paper over the cells Table 1 has a row for
    (the ``fabric_bulk`` and ``table1_cli_jobs2`` cells; 0 elsewhere).

    The references are the paper's k=8 numbers against our k=4 runs, so
    this gap is scale-limited: a distance to read a speed-up beside, not
    a validation.
    """
    paper = load_json(REFERENCES, {}).get("table1_permutation_mbps", {})
    gaps = [
        abs(info["summary"]["goodput_mbps"] - paper[cell]) / paper[cell]
        for cell, info in cells.items()
        if cell in paper and "summary" in info
    ]
    return 100.0 * statistics.mean(gaps) if gaps else 0.0


def per_layer_values(workload: str, trace: dict) -> dict:
    """Every per-layer metric this workload exercises, by name."""
    rep, warm, traced = trace["rep"], trace["warm"], trace["traced"]
    values = dict(traced.get("layers", {}))
    # Per-cell cost comes from the untraced repetition where the program
    # reports it (RunResult.metrics); the CLI reports it only through
    # telemetry, i.e. in the traced pass.
    cost_cells = traced if workload == "table1_cli_jobs2" else rep
    for cell, info in cost_cells.get("cells", {}).items():
        if info.get("wall_s") and info.get("events"):
            values[f"runner.cell_wall_s.{cell}"] = info["wall_s"]
            values[f"sim.events.{cell}"] = info["events"]
            values[f"sim.events_per_s.{cell}"] = info["events"] / info["wall_s"]
    cells = rep.get("cells", {})
    for cell, info in cells.items():
        for key, value in info.get("summary", {}).items():
            if key in ("goodput_mbps", "flows_done", "fct_p99_ms"):
                values[f"model.{key}.{cell}"] = value
    values["model.marks"] = sum(info.get("marks", 0) for info in cells.values())
    values["model.drops"] = sum(info.get("drops", 0) for info in cells.values())
    values["model.paper_gap_pct"] = paper_gap_pct(cells)
    if "wall_s" in rep:
        values["runner.events"] = rep["events"]
        values["runner.pool_efficiency"] = rep["cell_seconds"] / (rep["jobs"] * rep["wall_s"])
        values["runner.result_bytes"] = rep["cache_bytes"]
        if "wall_s" in traced:
            values["obs.trace_overhead"] = traced["wall_s"] / rep["wall_s"]
    if "wall_s" in warm:
        values["runner.warm_wall_s"] = warm["wall_s"]
    if "cli_import_s" in rep:
        values["cli.import_s"] = rep["cli_import_s"]
    return values


def fill_per_layer(bench: dict, values: dict) -> dict:
    """``{name: {"value", "unit"}}`` for every BENCHMARK.json per-layer name.

    A layer the workload bypasses reads 0: the fluid workload spends no
    time in ``net.link``, the packet workloads none in ``fluid.model``.
    """
    return {
        metric["name"]: {"value": values.get(metric["name"], 0), "unit": metric["unit"]}
        for metric in bench["per_layer"]
    }


# ----------------------------------------------------------------------
# Driver contract: one workload per invocation, one JSON line out.
# ----------------------------------------------------------------------


def contract_run(bench: dict, workload: str, seed: int, seconds: float, trace: bool) -> int:
    expected = expected_digests(workload, seed, 1.0)
    if trace:
        result = run_traced(workload, seed, 1.0)
        verdict = judge(workload, [result["rep"], result["warm"], result["traced"]], expected)
        metrics = fill_per_layer(bench, per_layer_values(workload, result))
    else:
        reps = []
        deadline = time.monotonic() + seconds
        while len(reps) < MIN_REPS or time.monotonic() < deadline:
            reps.append(run_rep(workload, seed, 1.0))
        spawns = setup_spawns(workload, seed, 1.0, SETUP_SAMPLES - len(reps))
        verdict = judge(workload, reps, expected)
        samples = end_to_end_samples(reps, spawns)
        if not samples["wall_s"]:  # every child crashed: there is no result to print
            print("\n".join(verdict["failures"]), file=sys.stderr)
            return 1
        metrics = {
            metric["name"]: {
                "value": statistics.median(samples[metric["name"]]),
                "unit": metric["unit"],
            }
            for metric in bench["end_to_end"]
        }
    for failure in verdict["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# The full ledger.
# ----------------------------------------------------------------------


def host_info(reps: int, seed: int, scale: float) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=False).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=False,
    ).stdout.strip() or "absent"
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy,
            "git_commit": commit, "reps": reps, "seed": seed, "scale": scale}


def summarize(values: list, unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"unit": unit, "median": statistics.median(values), "min": min(values),
            "max": max(values), "q1": q1, "q3": q3, "n": len(values), "samples": values}


def run_ledger(bench: dict, seed: int, reps: int, scale: float, setup_samples: int) -> dict:
    """Repetitions interleaved round-robin across workloads, then a traced pass each."""
    workloads = [w["name"] for w in bench["workloads"]]
    blessed = all(expected_digests(w, seed, scale) is not None for w in workloads)
    samples = {w: [] for w in workloads}
    for rep in range(reps):
        for workload in workloads:
            print(f"  rep {rep + 1}/{reps} {workload}", file=sys.stderr)
            samples[workload].append(run_rep(workload, seed, scale))
    report = {
        "schema": 1,
        "host": host_info(reps, seed, scale),
        "checked_against": "expected.json" if blessed else
        "repetition identity and invariants only (no blessed digests for this seed/scale)",
        "note": f"n={reps} per timing: median/min/max only, too few for a tail percentile",
        "workloads": {},
    }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for workload in workloads:
        print(f"  traced {workload}", file=sys.stderr)
        spawns = setup_spawns(workload, seed, scale, setup_samples - len(samples[workload]))
        trace = run_traced(workload, seed, scale)
        verdict = judge(workload, samples[workload] + list(trace.values()),
                        expected_digests(workload, seed, scale))
        timings = end_to_end_samples(samples[workload], spawns)
        first = next((s for s in samples[workload] if "cells" in s), {"cells": {}})
        report["workloads"][workload] = {
            "end_to_end": {
                name: summarize(timings[name], unit)
                for name, unit in units.items() if timings[name]  # none: all children crashed
            },
            "attempted": verdict["attempted"],
            "failed": verdict["failed"],
            "fail_share": verdict["failed"] / verdict["attempted"],
            "failures": verdict["failures"],
            "digests": {c: i.get("digest") for c, i in first["cells"].items()},
            "per_layer": fill_per_layer(bench, per_layer_values(workload, trace)),
            "trace": {
                "spans": trace["traced"].get("spans", []),
                "harness_self_s": trace["traced"].get("harness_self_s"),
            },
        }
    return report


def print_report(report: dict) -> None:
    host = report["host"]
    print(f"ledger: seed {host['seed']}, {host['reps']} reps, scale {host['scale']}, "
          f"nproc {host['nproc']}, python {host['python']}, numpy {host['numpy']}, "
          f"commit {host['git_commit'][:12]}")
    print(f"checked against: {report['checked_against']}")
    print(report["note"])
    for workload, body in report["workloads"].items():
        print(f"\n== {workload}: {body['failed']}/{body['attempted']} cells failed "
              f"(fail_share {body['fail_share']:.3f})")
        for failure in body["failures"]:
            print(f"   FAILED {failure}")
        for name, row in body["end_to_end"].items():
            print(f"   {name:<14} {row['median']:>12.4f} {row['unit']:<4} "
                  f"min {row['min']:.4f} max {row['max']:.4f} n={row['n']}")
        for name, row in body["per_layer"].items():
            if row["value"]:
                print(f"     {name:<34} {row['value']:>16.6g} {row['unit']}")


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------


def is_exact(name: str) -> bool:
    return name.startswith(EXACT_PREFIXES) or name.endswith(EXACT_SUFFIXES)


def verdict_of(a: dict, b: dict, bound: float) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for a lower-is-better metric."""
    spread = max((row["q3"] - row["q1"]) / row["median"] for row in (a, b))
    if spread > bound:
        if b["max"] <= a["min"]:
            return "ok"  # every run of B reads better than every run of A
        if b["min"] > a["max"] * (1.0 + bound):
            return "regressed"
        return "unresolved"
    return "regressed" if b["median"] > a["median"] * (1.0 + bound) else "ok"


def compare(bench: dict, path_a: str, path_b: str) -> int:
    a, b = (load_json(pathlib.Path(path), None) for path in (path_a, path_b))
    if a is None or b is None:
        print("--compare: report not found", file=sys.stderr)
        return 2
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    regressed = 0
    for workload, body_a in a["workloads"].items():
        body_b = b["workloads"].get(workload)
        if body_b is None:
            continue
        print(f"\n== {workload}")
        for name, bound in bounds.items():
            row_a, row_b = body_a["end_to_end"][name], body_b["end_to_end"][name]
            verdict = verdict_of(row_a, row_b, bound)
            regressed += verdict == "regressed"
            print(f"   {name:<12} A {row_a['median']:.4f} [{row_a['min']:.4f}-{row_a['max']:.4f}]"
                  f"  B {row_b['median']:.4f} [{row_b['min']:.4f}-{row_b['max']:.4f}]"
                  f"  {row_a['unit']:<3} bound {bound:.0%}  {verdict}")
        if body_b["failed"] > body_a["failed"]:
            regressed += 1
            print(f"   failed cells {body_a['failed']} -> {body_b['failed']}  regressed")
        mismatched = []
        for name, row_a in body_a["per_layer"].items():
            row_b = body_b["per_layer"].get(name)
            if row_b is None or not (row_a["value"] or row_b["value"]):
                continue
            if is_exact(name):
                if row_a["value"] != row_b["value"]:
                    mismatched.append(name)
                continue
            delta = (row_b["value"] - row_a["value"]) / row_a["value"] if row_a["value"] else 0.0
            print(f"     {name:<34} {row_a['value']:>14.6g} -> {row_b['value']:>14.6g} "
                  f"{row_a['unit']:<8} {delta:+.1%}")
        print("   exact counters: " + (f"DIFFER: {', '.join(mismatched)}" if mismatched
                                       else "identical"))
    return 1 if regressed else 0


# ----------------------------------------------------------------------
# --bless, --selftest
# ----------------------------------------------------------------------


def bless(bench: dict, seed: int) -> int:
    """Pin this seed's digests (two agreeing repetitions per workload).

    Allowed only in a PR of kind ``benchmark``: the digests define what
    "the same simulation" means for every later performance claim.
    """
    pinned = {}
    for workload in (w["name"] for w in bench["workloads"]):
        reps = [run_rep(workload, seed, 1.0) for _ in range(2)]
        verdict = judge(workload, reps, None)
        if verdict["failed"]:
            print("\n".join(verdict["failures"]), file=sys.stderr)
            return 1
        pinned[workload] = {c: i["digest"] for c, i in reps[0]["cells"].items()}
    expected = load_json(EXPECTED, {"schema": 1, "seeds": {}})
    expected["seeds"][str(seed)] = pinned
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"blessed seed {seed} into {EXPECTED.relative_to(ROOT)}")
    return 0


def selftest(bench: dict) -> int:
    """Every workload at 1/20 duration, 2 reps; checks the harness itself."""
    report = run_ledger(bench, DEFAULT_SEED, reps=2, scale=SELFTEST_SCALE, setup_samples=2)
    names = {w["name"] for w in bench["workloads"]}
    assert set(report["workloads"]) == names == set(child.WORKLOADS), "workload names differ"
    emitted = set()
    for workload, body in report["workloads"].items():
        assert set(body["end_to_end"]) == {m["name"] for m in bench["end_to_end"]}, workload
        assert set(body["per_layer"]) == {m["name"] for m in bench["per_layer"]}, workload
        for row in list(body["end_to_end"].values()) + list(body["per_layer"].values()):
            assert row["unit"], f"{workload}: a metric without unit"
        assert body["failed"] == 0, f"{workload}: {body['failures']}"
        emitted |= {name for name, row in body["per_layer"].items() if row["value"]}
        # A corrupted expected digest must surface as a failed cell.
        cell = child.CELLS[workload][0]
        sample = {"cells": {c: {"digest": d} for c, d in body["digests"].items()}}
        good = judge(workload, [sample], dict(body["digests"]))
        bad = judge(workload, [sample], {**body["digests"], cell: "0" * 64})
        assert good["failed"] == 0 and bad["failed"] == 1, f"{workload}: corrupt digest missed"
    # Counters that are legitimately 0 at selftest scale may stay silent.
    silent = {m["name"] for m in bench["per_layer"]} - emitted
    assert silent <= {"model.drops", "sim.compactions", "other_s"}, f"never emitted: {silent}"
    print_report(report)
    print("\nselftest ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", choices=child.WORKLOADS, help="driver mode: one workload")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="driver mode: keep starting repetitions for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 prints the per-layer metrics")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--bless", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"{SRC / 'repro'} not found: the ledger measures that package", file=sys.stderr)
        return 2
    bench = load_json(BENCHMARK, None)
    if bench is None:
        print(f"{BENCHMARK} not found", file=sys.stderr)
        return 2
    if args.compare:
        return compare(bench, *args.compare)
    if args.selftest:
        return selftest(bench)
    if args.bless:
        return bless(bench, args.seed)
    if args.workload:
        return contract_run(bench, args.workload, args.seed, args.seconds, bool(args.trace))
    report = run_ledger(bench, args.seed, REPS, 1.0, SETUP_SAMPLES)
    OUT.mkdir(exist_ok=True)
    # Commit and time in the name: the second run of a --compare pair must
    # not overwrite the first.
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT / f"ledger-seed{args.seed}-{report['host']['git_commit'][:12]}-{stamp}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print_report(report)
    print(f"\nreport written to {path}")
    return 1 if any(body["failed"] for body in report["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())

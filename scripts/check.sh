#!/usr/bin/env bash
# Repo check: lint (ruff if installed; the one repro.lint pass and the
# one sanitizer smoke always; mypy if installed) + the tier-1 test
# suite, which includes the runtime-invariant / golden-trace tests
# (-m invariants) and the lint self-checks (-m lint).
#
#   scripts/check.sh               # everything
#   scripts/check.sh --lint        # ruff (if installed) + lint pass + sanitizer smoke + mypy (if installed)
#   scripts/check.sh --tests       # tests only
#   scripts/check.sh --invariants  # invariant + golden-trace suite only
#   scripts/check.sh --bench       # experiment ledger selftest (BENCHMARK.json's harness) + call-count repeatability + flow-churn memory census
#
# ruff and mypy are optional: their configs live in pyproject.toml, but
# the check degrades gracefully on machines without them.  The lint pass
# and the smoke are NOT optional — both are pure stdlib (repro.lint), so
# there is never a reason to skip them.

set -euo pipefail
cd "$(dirname "$0")/.."

# Prepend src without clobbering a caller-provided PYTHONPATH.
REPRO_PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

run_lint=1
run_tests=1
run_invariants_only=0
run_bench_only=0
case "${1:-}" in
    --lint) run_tests=0 ;;
    --tests) run_lint=0 ;;
    --invariants) run_lint=0; run_invariants_only=1 ;;
    --bench) run_lint=0; run_tests=0; run_bench_only=1 ;;
    "") ;;
    *) echo "usage: scripts/check.sh [--lint|--tests|--invariants|--bench]" >&2; exit 2 ;;
esac

# Compiled bytecode and generated sanitizer reports must never be
# tracked (machine/version specific; they bloat every diff).  Cheap, so
# it runs in every mode.
if command -v git > /dev/null 2>&1 && git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    echo "== tracked-artifact guard =="
    tracked_artifacts=$(git ls-files | grep -E '(^|/)__pycache__/|\.py[cod]$|^[^/]*\.jsonl$' || true)
    if [ -n "$tracked_artifacts" ]; then
        echo "error: generated artifacts are tracked in git:" >&2
        echo "$tracked_artifacts" >&2
        echo "fix: git rm -r --cached <paths>  (.gitignore already excludes them)" >&2
        exit 1
    fi
fi

if [ "$run_lint" = 1 ]; then
    if command -v ruff > /dev/null 2>&1; then
        echo "== ruff =="
        ruff check src tests benchmarks scripts
    else
        echo "== ruff not installed; skipping =="
    fi
    # One pass: the per-file rules and the whole-program join (unit
    # arithmetic, seed provenance, priority tiers, hot-path cost) over one
    # set of file summaries; the gate is zero findings.
    echo "== lint (python -m repro.lint) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro.lint src/repro
    # One smoke: every golden scenario under all four probes together —
    # validator, race and allocation sanitizers, profiler (digests must
    # stay bit-identical, no observed collision, every observed
    # allocator statically explained, no callback firing 5% of the
    # events missing from hotpaths.toml), then the two engine micro
    # cells with every callback traced.
    echo "== sanitizer smoke (python -m repro.lint.smoke) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro.lint.smoke \
        --out lint-report.jsonl
    if command -v mypy > /dev/null 2>&1; then
        echo "== mypy =="
        mypy
    else
        echo "== mypy not installed; skipping =="
    fi
fi

if [ "$run_bench_only" = 1 ]; then
    # The repo benchmark's own harness check (BENCHMARK.json): every
    # workload at 1/20 duration, digests against expected.json, ~20 s.
    echo "== experiment ledger selftest (benchmarks/ledger/run.py --selftest) =="
    python benchmarks/ledger/run.py --selftest
    # Call counts are the deterministic cost row: two runs of one
    # fabric cell must make exactly the same calls, layer by layer.
    echo "== call-count repeatability (benchmarks/test_perf_calls.py) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python -m pytest -q -p no:cacheprovider \
        benchmarks/test_perf_calls.py::test_call_counts_repeat_exactly
    # The flow-churn memory census: one websearch cell's tracemalloc peak
    # per launched flow under its bound, and no cyclic garbage left by
    # finished flows (~45 s).
    echo "== flow-churn memory census (benchmarks/test_perf_mice.py) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python -m pytest -q -p no:cacheprovider \
        benchmarks/test_perf_mice.py --benchmark-only
fi

workload_smoke() {
    # `list` first: it builds every experiment row's default grid, so a
    # row that cannot construct its defaults fails here in under a second.
    echo "== experiment table (python -m repro list) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro list
    # One tiny cell of each new traffic kind through the real CLI: the
    # cheapest end-to-end proof that samplers -> schedule -> open-loop
    # launch -> FCT/queue reducers -> table formatting still compose
    # (olia-2: one scheme-table row no default grid runs; lia-2: the
    # coupled loss-driven row whose law the fluid backend shares).
    echo "== workload smoke (tiny workload + incast cells via the CLI) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro workload \
        --loads 0.4 --schemes xmp-2 dctcp olia-2 lia-2 --duration 0.006 --no-cache
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro incast \
        --fan-ins 4 --schemes xmp-2 --duration 0.006 --no-cache
    # Each scene-driven figure once through the CLI, so every scripted
    # action (start, stop, add_subflow, link_down) runs end to end (~3 s).
    echo "== figure smoke (Figs. 1/4/6/7 via the CLI) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro fig1 --interval 0.05 --no-cache
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro fig4 --time-scale 0.01 --no-cache
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro fig6 --time-scale 0.01 --no-cache
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro fig7 --time-scale 0.002 --no-cache
}

fluid_smoke() {
    # The fluid backend end-to-end through the CLI on the dumbbell and
    # on a k=8 fat tree (the constructed fat-tree paths), then a short
    # fluid-vs-packet cross-validation on the Fig. 1 dumbbell: the
    # cheapest proof that the ODE backend, the runner plumbing and the
    # crosscheck tolerances still hold together.  The fat-tree cell runs
    # twice against one fresh cache directory, so a fluid result is
    # pickled to the disk tier and read back: the second run must be
    # served from the cache and print the same table.
    echo "== fluid smoke (dumbbell + fat-tree cells, bottleneck crosscheck via the CLI) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro fluid \
        --flows 4 --duration 0.05 --no-cache
    # Every fluid law on both solvers, so a law that breaks under one
    # solver fails the smoke too.
    local scheme solver
    for scheme in $(PYTHONPATH="$REPRO_PYTHONPATH" python -c \
            'from repro.fluid.laws import FLUID_SCHEMES; print(*FLUID_SCHEMES)'); do
        for solver in reference vector; do
            PYTHONPATH="$REPRO_PYTHONPATH" python -m repro fluid --scheme "$scheme" \
                --solver "$solver" --flows 2 --duration 0.005 --no-cache
        done
    done
    local fluid_cache cold warm
    fluid_cache=$(mktemp -d)
    fattree_cell() {
        PYTHONPATH="$REPRO_PYTHONPATH" python -m repro fluid \
            --topology fattree --k 8 --flows 256 --subflows 2 --solver vector \
            --duration 0.01 --cache-dir "$fluid_cache"
    }
    cold=$(fattree_cell)
    warm=$(fattree_cell)
    rm -rf "$fluid_cache"
    echo "$cold"
    echo "$warm" | grep '^\[runner\]'
    if ! echo "$warm" | grep '^\[runner\]' | grep -q 'all served from cache'; then
        echo "error: the second fat-tree fluid run was not served from the cache" >&2
        exit 1
    fi
    if [ "$(echo "$cold" | grep -v '^\[runner\]')" != "$(echo "$warm" | grep -v '^\[runner\]')" ]; then
        echo "error: the cached fat-tree fluid result prints a different table" >&2
        exit 1
    fi
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro fluid \
        --crosscheck bottleneck --duration 0.05 --no-cache
    # The example that drives the fluid API from outside the package
    # (fluid vs packet at 1-8 flows, Eq. 3 at the measured p; ~3 s).
    echo "== fluid example (examples/model_vs_simulator.py) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python examples/model_vs_simulator.py
}

if [ "$run_invariants_only" = 1 ]; then
    echo "== pytest (invariants + golden traces) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python -m pytest -x -q -m invariants
elif [ "$run_tests" = 1 ]; then
    echo "== pytest (tier 1, includes invariant + lint suites) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python -m pytest -x -q
    workload_smoke
    fluid_smoke
fi

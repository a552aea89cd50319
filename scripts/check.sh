#!/usr/bin/env bash
# Repo check: lint (ruff if installed, simlint + simsem + simrace +
# simperf always, mypy if installed) + the tier-1 test suite, which
# includes the runtime-invariant / golden-trace tests (-m invariants),
# the simlint self-checks (-m simlint), the simsem
# cross-module-analysis suite (-m simsem), the simrace detector suite
# (-m simrace) and the simperf suite (-m simperf).
#
#   scripts/check.sh               # everything
#   scripts/check.sh --lint        # ruff (if installed) + simlint + simsem + simrace + simperf + mypy (if installed)
#   scripts/check.sh --simlint     # simlint only (syntactic, per file)
#   scripts/check.sh --sem         # simsem only (cross-module semantic pass)
#   scripts/check.sh --race        # simrace only (static race pass + sanitizer smoke)
#   scripts/check.sh --perf        # simperf only (static hot-path pass + allocation sanitizer smoke)
#   scripts/check.sh --tests       # tests only
#   scripts/check.sh --invariants  # invariant + golden-trace suite only
#   scripts/check.sh --bench       # engine bench vs BENCH_engine.json (gate: engine_bench.py DEFAULT_THRESHOLD) + ledger selftest
#
# ruff and mypy are optional: their configs live in pyproject.toml, but
# the check degrades gracefully on machines without them.  simlint,
# simsem, simrace and simperf are NOT optional — all are pure stdlib
# (repro.lint), so there is never a reason to skip them; every
# lint-running mode runs all four.

set -euo pipefail
cd "$(dirname "$0")/.."

# Prepend src without clobbering a caller-provided PYTHONPATH.
REPRO_PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

run_lint=1
run_tests=1
run_simlint_only=0
run_sem_only=0
run_race_only=0
run_perf_only=0
run_invariants_only=0
run_bench_only=0
case "${1:-}" in
    --lint) run_tests=0 ;;
    --simlint) run_tests=0; run_lint=0; run_simlint_only=1 ;;
    --sem) run_tests=0; run_lint=0; run_sem_only=1 ;;
    --race) run_tests=0; run_lint=0; run_race_only=1 ;;
    --perf) run_tests=0; run_lint=0; run_perf_only=1 ;;
    --tests) run_lint=0 ;;
    --invariants) run_lint=0; run_invariants_only=1 ;;
    --bench) run_lint=0; run_tests=0; run_bench_only=1 ;;
    "") ;;
    *) echo "usage: scripts/check.sh [--lint|--simlint|--sem|--race|--perf|--tests|--invariants|--bench]" >&2; exit 2 ;;
esac

simlint() {
    echo "== simlint (python -m repro.lint) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro.lint src/repro
}

simsem() {
    # The cross-module pass; summaries cache under .simsem-cache
    # (content-addressed — safe to persist across runs and in CI).
    echo "== simsem (python -m repro.lint --sem, semantic pass) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro.lint --sem \
        --select SIM011,SIM012,SIM013,SIM014,SIM015 src/repro
}

simrace() {
    # The same-instant race detector, both sides: the static pass over
    # the whole tree, then the runtime sanitizer on one bottleneck
    # golden and one incast cell, cross-checked against the checked-in
    # digests (the sanitizer must observe without perturbing).  The
    # report path can be overridden for CI artifact upload.
    echo "== simrace (python -m repro.lint --race, static pass) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro.lint --race \
        --select SIM016,SIM017,SIM018 src/repro
    echo "== simrace sanitizer smoke (python -m repro.lint.race) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro.lint.race \
        --out "${REPRO_RACE_REPORT:-race-report.jsonl}"
}

simperf() {
    # The hot-path performance pass, both sides: the static rules over
    # the whole tree (every finding must be fixed or carry an
    # allow-alloc pragma — the gate is zero findings), then the
    # allocation sanitizer on the golden smoke set (digests must stay
    # bit-identical and every observed allocator must have a static
    # explanation), then the two engine micro cells with every callback
    # traced.  The report path can be overridden for CI artifact upload.
    echo "== simperf (python -m repro.lint --perf, static pass) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro.lint --perf \
        --select SIM019,SIM020,SIM021,SIM022,SIM023 src/repro
    echo "== simperf sanitizer smoke (python -m repro.lint.perf) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro.lint.perf \
        --out "${REPRO_PERF_REPORT:-perf-report.jsonl}"
    echo "== simperf micro cells (python -m repro.lint.perf --micro) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro.lint.perf --micro
}

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

if [ "$run_simlint_only" = 1 ]; then
    simlint
fi

if [ "$run_sem_only" = 1 ]; then
    simsem
fi

if [ "$run_race_only" = 1 ]; then
    simrace
fi

if [ "$run_perf_only" = 1 ]; then
    simperf
fi

if [ "$run_lint" = 1 ]; then
    if command -v ruff > /dev/null 2>&1; then
        echo "== ruff =="
        ruff check src tests benchmarks
    else
        echo "== ruff not installed; skipping =="
    fi
    simlint
    simsem
    simrace
    simperf
    if command -v mypy > /dev/null 2>&1; then
        echo "== mypy =="
        mypy
    else
        echo "== mypy not installed; skipping =="
    fi
fi

if [ "$run_bench_only" = 1 ]; then
    # Perf-regression gate: re-measure the canonical cells (best-of-N to
    # ride out shared-runner noise) and fail on an events/sec drop past
    # engine_bench.py's DEFAULT_THRESHOLD (the one place the gate is set)
    # against the committed trajectory's last entry.
    echo "== engine bench (vs BENCH_engine.json) =="
    REPRO_BENCH_REPEATS="${REPRO_BENCH_REPEATS:-5}" \
        PYTHONPATH="$REPRO_PYTHONPATH" python benchmarks/engine_bench.py --check
    # The repo benchmark's own harness check (BENCHMARK.json): every
    # workload at 1/20 duration, digests against expected.json, ~20 s.
    echo "== experiment ledger selftest (benchmarks/ledger/run.py --selftest) =="
    python benchmarks/ledger/run.py --selftest
fi

workload_smoke() {
    # One tiny cell of each new traffic kind through the real CLI: the
    # cheapest end-to-end proof that samplers -> schedule -> open-loop
    # launch -> FCT/queue reducers -> table formatting still compose.
    echo "== workload smoke (tiny workload + incast cells via the CLI) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro workload \
        --loads 0.4 --schemes xmp-2 --duration 0.006 --no-cache
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro incast \
        --fan-ins 4 --schemes xmp-2 --duration 0.006 --no-cache
}

fluid_smoke() {
    # The fluid backend end-to-end through the CLI, then a short
    # fluid-vs-packet cross-validation on the Fig. 1 dumbbell: the
    # cheapest proof that the ODE backend, the runner plumbing and the
    # crosscheck tolerances still hold together.
    echo "== fluid smoke (fluid cell + bottleneck crosscheck via the CLI) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro fluid \
        --flows 4 --duration 0.05 --no-cache
    PYTHONPATH="$REPRO_PYTHONPATH" python -m repro fluid \
        --crosscheck bottleneck --duration 0.05 --no-cache
}

if [ "$run_invariants_only" = 1 ]; then
    echo "== pytest (invariants + golden traces) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python -m pytest -x -q -m invariants
elif [ "$run_tests" = 1 ]; then
    echo "== pytest (tier 1, includes invariant + simlint suites) =="
    PYTHONPATH="$REPRO_PYTHONPATH" python -m pytest -x -q
    workload_smoke
    fluid_smoke
fi

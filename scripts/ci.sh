#!/bin/sh
# Continuous-integration entry point: build and test the gating
# configurations — optimized (release), sanitizer-instrumented
# (ASan + UBSan), and a ThreadSanitizer pass over the farm's
# determinism tests — using the presets from CMakePresets.json.
#
#   scripts/ci.sh [jobs]
#
# Exits non-zero on the first failing build or test.
set -eu

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc 2>/dev/null || echo 4)}"

# Both gating builds treat compiler warnings (-Wall -Wextra) as errors.
for preset in release sanitize; do
    echo "==> configure ($preset)"
    cmake --preset "$preset" -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
    echo "==> build ($preset)"
    cmake --build --preset "$preset" -j "$JOBS"
    echo "==> test ($preset)"
    ctest --preset "$preset" -j "$JOBS"
done

# Compiler stage: every example kernel must compile through xcc,
# lint clean, and match its committed golden byte for byte. Catches
# sched-output drift that no unit test asserts on.
echo "==> xcc (compile examples/ir, lint, golden diff)"
XCC=build-release/tools/xcc
LINT=build-release/tools/ximd-lint
XCC_OUT="$(mktemp -d)"
trap 'rm -rf "$XCC_OUT"' EXIT
"$XCC" --width 4 --verify examples/ir/reduce.ir \
    -o "$XCC_OUT/reduce_w4.ximd"
"$XCC" --width 2 --verify examples/ir/chain.ir \
    -o "$XCC_OUT/chain_w2.ximd"
"$XCC" --verify examples/ir/scale.ir -o "$XCC_OUT/scale_w8.ximd"
"$XCC" --width 4 --verify --schedule=exact examples/ir/loop12.ir \
    -o "$XCC_OUT/loop12_w4.ximd"
"$XCC" --compose balanced-groups --width 8 --verify \
    examples/ir/reduce.ir examples/ir/chain.ir examples/ir/scale.ir \
    -o "$XCC_OUT/composed_bg.ximd"
"$LINT" "$XCC_OUT"/*.ximd
for golden in examples/ir/golden/*.ximd; do
    diff -u "$golden" "$XCC_OUT/$(basename "$golden")"
done
echo "xcc: examples compile, lint clean, goldens match"

# Frontend stage: the Livermore kernels must compile from C source
# through regalloc and the scheduler, lint clean (static and race),
# and match their committed goldens byte for byte — including the
# forced-spill configuration (5 registers; livermore3's peak live
# pressure is 6, so the allocator really spills).
echo "==> frontend (xcc --input=c: compile, lint, golden diff)"
for kernel in livermore1 livermore2 livermore3 livermore12; do
    "$XCC" --input=c --verify "examples/c/$kernel.c" \
        -o "$XCC_OUT/$kernel.ximd"
done
"$XCC" --input=c --num-regs=5 --spill --verify \
    examples/c/livermore3.c -o "$XCC_OUT/livermore3_spill.ximd"
"$LINT" "$XCC_OUT"/livermore*.ximd
"$LINT" --race "$XCC_OUT"/livermore*.ximd > /dev/null
for golden in examples/c/golden/*.ximd; do
    diff -u "$golden" "$XCC_OUT/$(basename "$golden")"
done
echo "frontend: Livermore kernels compile, lint clean, goldens match"

# Race-lint stage: the cross-stream race engine over the shipped
# corpus. The good examples and every xcc-compiled golden must come
# back clean (exit 0); each bad-corpus program must be rejected
# (exit 1) with its expected diagnostic kind.
echo "==> race-lint (ximd-lint --race over goldens and examples)"
"$LINT" --race --json \
    examples/programs/minmax.ximd \
    examples/programs/barrier.ximd \
    examples/ir/golden/*.ximd > /dev/null
for bad in race_mem:mem-race race_cc_sync:cc-race \
           lost_signal:lost-signal unbounded_wait:unbounded-wait; do
    prog="examples/programs/${bad%%:*}.ximd"
    check="${bad##*:}"
    if "$LINT" --race --json "$prog" > "$XCC_OUT/race.json"; then
        echo "race-lint: $prog unexpectedly clean" >&2
        exit 1
    fi
    grep -q "\"check\": \"$check\"" "$XCC_OUT/race.json" || {
        echo "race-lint: $prog missing expected $check" >&2
        exit 1
    }
done
echo "race-lint: good corpus clean, bad corpus rejected"

# Execution-backend stage: the threaded-code backend must be
# observationally identical to the interpreter. Run the golden and
# differential suites that pin that, then drive the farm under both
# backends and require the reports to agree on everything except the
# self-describing backend/predecode labels.
echo "==> backend (interp vs threaded: goldens, fuzz, xfarm parity)"
ctest --test-dir build-release -j "$JOBS" --output-on-failure \
    -R 'Backend\.|BackendDifferential|GoldenEquivalence|DifferentialFuzz|cli_xsim_backend|cli_xfarm_backend'
XFARM=build-release/tools/xfarm
"$XFARM" --quiet --n 64 --no-timing --backend=interp \
    --out "$XCC_OUT/farm_interp.json"
"$XFARM" --quiet --n 64 --no-timing --backend=threaded \
    --out "$XCC_OUT/farm_threaded.json"
for f in farm_interp farm_threaded; do
    sed -e 's/"backend": "[a-z]*"/"backend": "-"/' \
        -e 's/"predecode": "[a-z]*"/"predecode": "-"/' \
        "$XCC_OUT/$f.json" > "$XCC_OUT/$f.norm.json"
done
diff -u "$XCC_OUT/farm_interp.norm.json" \
        "$XCC_OUT/farm_threaded.norm.json"
# The compiled goldens: one lockstep class each (every XIMD cycle runs
# in the threaded backend's row loop), plus the multi-class
# composed_bg. xsim writes to a file first so that its exit status
# reaches set -e; an empty report fails the stage.
XSIM=build-release/tools/xsim
for golden in examples/c/golden/*.ximd examples/ir/golden/*.ximd; do
    for backend in interp threaded; do
        "$XSIM" --stats-json --backend="$backend" "$golden" \
            > "$XCC_OUT/xsim_$backend.raw.json"
        sed -e 's/"backend": "[a-z]*"/"backend": "-"/' \
            -e 's/"predecode": "[a-z]*"/"predecode": "-"/' \
            "$XCC_OUT/xsim_$backend.raw.json" > "$XCC_OUT/xsim_$backend.json"
        grep -q '"cycles": [1-9]' "$XCC_OUT/xsim_$backend.json" || {
            echo "backend: no cycle count in $golden's $backend report" >&2
            exit 1
        }
    done
    diff -u "$XCC_OUT/xsim_interp.json" "$XCC_OUT/xsim_threaded.json"
done
echo "backend: threaded matches the interpreter across the suite"

# Portable-dispatch stage: the threaded backend's handlers compile to
# computed goto on GCC/Clang and to a switch elsewhere. Build the
# switch form (-DXIMD_NO_COMPUTED_GOTO, warnings as errors) and run the
# suites that hold it to the interpreter.
echo "==> portable dispatch (threaded backend, switch form)"
cmake -B build-portable -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-DXIMD_NO_COMPUTED_GOTO \
    -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build build-portable -j "$JOBS" \
    --target test_core test_fuzz test_integration
ctest --test-dir build-portable -j "$JOBS" --output-on-failure \
    -R 'Backend\.|BackendDifferential|GoldenEquivalence|VliwEquivalence'
echo "portable dispatch: switch form matches the interpreter"

# Exact-scheduler stage: the exact tier must prove every paper kernel
# minimal within the default budget (no timeout fallback in CI), and
# the optimality-gap report must match its pinned golden apart from
# wall-clock solve times. Search-node counts stay in the diff: the
# branch-and-bound order is deterministic, so a node-count change
# means the search itself changed.
echo "==> exact-parity (exact vs heuristic scheduler tiers)"
ctest --test-dir build-release -j "$JOBS" --output-on-failure \
    -R 'ExactSched|ExactParity|cli_xcc_schedule'
: > "$XCC_OUT/exact_gap.txt"
for kernel in reduce:4 chain:2 scale:8 loop12:4; do
    name="${kernel%%:*}"
    width="${kernel##*:}"
    "$XCC" --width "$width" --verify --schedule=exact --stats-json \
        "examples/ir/$name.ir" -o "$XCC_OUT/exact_$name.ximd" \
        2> "$XCC_OUT/exact_stats.json"
    if grep -q '"timeout": true' "$XCC_OUT/exact_stats.json"; then
        echo "exact-parity: $name fell back on timeout" >&2
        exit 1
    fi
    grep '"block"' "$XCC_OUT/exact_stats.json" \
        | sed -e "s|^ *|$name w$width |" \
              -e 's/"solve_ms": [0-9.e+-]*/"solve_ms": -/' \
        >> "$XCC_OUT/exact_gap.txt"
done
"$LINT" "$XCC_OUT"/exact_*.ximd
diff -u tests/sched/golden/exact_gap.golden "$XCC_OUT/exact_gap.txt"
echo "exact-parity: kernels proven minimal, gap report matches golden"

# Benchmark stage: the repository benchmark's own tests (every
# workload at a tiny size, metric names against BENCHMARK.json,
# compare.py's verdicts). When BENCH_BASELINE names a record file
# written by `perfbench/run.py --record`, also record every workload
# on this checkout and compare: a regression beyond a metric's bound
# or a simulated-statistics digest mismatch fails the stage.
echo "==> perfbench (benchmark self-tests, baseline compare)"
python3 perfbench/tests/test_perfbench.py
if [ -n "${BENCH_BASELINE:-}" ]; then
    for workload in short-jobs long-jobs livermore-c service-rt; do
        python3 perfbench/run.py --workload "$workload" --seed 1 \
            --seconds 10 --record "$XCC_OUT/bench_new.jsonl" > /dev/null
    done
    python3 perfbench/compare.py "$BENCH_BASELINE" \
        "$XCC_OUT/bench_new.jsonl"
else
    echo "perfbench: BENCH_BASELINE not set; skipping baseline compare"
fi

# clang-tidy stage: bugprone/concurrency/performance profiles from
# .clang-tidy over the analysis and core sources, using the release
# build's compile_commands.json. Gated on the tool being installed so
# minimal containers still pass CI.
if command -v clang-tidy > /dev/null 2>&1; then
    echo "==> clang-tidy (src/analysis + src/core)"
    clang-tidy -p build-release --quiet \
        src/analysis/*.cc src/core/*.cc
    echo "clang-tidy: clean"
else
    echo "==> clang-tidy not installed; skipping stage"
fi

# Snapshot / fuzz / fault / memory / JSON / interval stage: the
# serialization substrate, the fault injector and the paged memory poke
# at raw state and page buffers, the JSON reader and its typed field
# reader are an input boundary (service request lines, sweep files,
# fault plans) with a nesting cap and large-input tests, and the race
# engine's interval domain indexes a flat rows x slots state array by
# hand, and the assembler slices source text into views and parses
# literals in place (its equivalence golden replays ~1000 broken
# sources), and the threaded backend indexes per-token counters, key
# owners and register stamps by hand (its interp-vs-threaded suites
# drive them), and the checkers share one ProgramFacts per program
# that the compile context carries from verify to race-check and
# drops when a pass replaces the program (the verifier, race-engine
# and pipeline suites drive it), so run
# those suites again under ASan+UBSan explicitly (they are also part
# of the full runs above; this stage keeps them visible and gating on
# their own).
echo "==> test (sanitize: snapshot + fuzz + fault + memory + json + interval + asm + backend + verifier + pipeline suites)"
ctest --test-dir build-sanitize -j "$JOBS" --output-on-failure \
    -R 'Service\.|Sweep\.|FaultPlan\.|StateIo|Snapshot|FaultCampaign|DifferentialFuzz|Memory\.|Json\.|ClassIntervals\.|RaceEquivalence\.|Assembler\.|AsmWriter\.|AsmEquivalence\.|Backend\.|BackendDifferential|Cfg\.|Dataflow\.|Lockstep\.|SyncCheck\.|RaceEngine\.|Verify|Pipeline|cli_xfarm_checkpoint|cli_xfarm_resume|cli_xfarm_faults'

# Coverage stage: gcov line coverage of the execution layers.
echo "==> coverage (gcov: src/sim + src/core)"
scripts/coverage_report.sh "$JOBS"

# TSAN stage: threads run only in the farm's worker pool and in the
# service, whose worker starts that pool for every submission, so
# build just the farm test binary and the xfarm CLI and run the
# Farm/Sweep/Service tests (which include the 1-vs-8-thread
# determinism checks) instrumented.
echo "==> configure (tsan)"
cmake --preset tsan
echo "==> build (tsan: farm targets)"
cmake --build --preset tsan -j "$JOBS" --target test_farm xfarm
echo "==> test (tsan: farm determinism)"
ctest --preset tsan -j "$JOBS"

# The threaded backend shares flattened token tables between worker
# threads via PreparedProgram; drive a forced-threaded batch under
# TSAN to prove the sharing is race-free.
echo "==> tsan (xfarm batch, threaded backend forced)"
build-tsan/tools/xfarm --quiet -j8 --n 64 --backend=threaded \
    --filter minmax --filter bitcount

# The service runs one worker thread against connection threads; drive
# a real daemon through accept, a mistyped request (which must be
# answered, not kill the daemon: kill -TERM below would then fail),
# submit, blocking results, drain, and the SIGTERM drain path under
# TSAN.
echo "==> tsan (xfarm service: accept, submit, drain)"
SOCK="$XCC_OUT/tsan_xfarm.sock"
build-tsan/tools/xfarm --serve "$SOCK" --quiet &
SRV=$!
for _ in $(seq 1 50); do
    [ -S "$SOCK" ] && break
    sleep 0.1
done
printf '%s\n' \
    '{"cmd":"results","batch":"0"}' \
    '{"cmd":"ping"}' \
    '{"cmd":"submit","suite":{"n":64,"filter":["minmax"]}}' \
    '{"cmd":"results","batch":0,"wait":true}' \
    '{"cmd":"drain"}' \
    | build-tsan/tools/xfarm --connect "$SOCK" > /dev/null
kill -TERM "$SRV"
wait "$SRV"
echo "tsan: service accept/drain clean"

echo "ci: all configurations clean"

#!/bin/sh
# Run every google-benchmark binary and merge the results into one
# machine-readable file, BENCH_<YYYYMMDD>.json, in the repo root:
#
#   {
#     "date": "...", "build_dir": "...",
#     "commit": "...", "dirty": ..., "nproc": ...,
#     "build_type": "...", "compiler": "...",
#     "benchmarks": [
#       { "binary": "...", "name": "...", "wall_time_ms": ...,
#         "cpu_time_ms": ..., "machine_cycles_per_s": ... }, ...
#     ]
#   }
#
# The header records where the numbers came from: the checkout's
# commit and whether it had uncommitted changes, the host's core
# count, and the build type and compiler the bench binaries report.
# Wall-time per benchmark plus simulated machine-cycles-per-second
# (for the benchmarks that export that counter) is the regression
# currency for the simulator's host performance; the set-up-bound
# rows (simulateTproc, simulateMinmaxTrace) export machines_per_s
# instead. The xfarm scaling sweep (bench_farm_scaling, 1/2/4/8
# workers) is additionally summarized as a top-level "xfarm_scaling"
# section with speedups relative to the 1-worker run, the
# compiler-pipeline timings
# (bench_sched_compile) as a top-level "sched_compile" section, the
# simulate*/interp-vs-threaded pairs as a top-level
# "execution_backends" section with per-row cycles/s and speedup, the
# race engine's per-program lint time (bench_race_lint) as a
# top-level "race_lint" section, and the assembler's microseconds per
# source line and the writer's per program (bench_assemble) as a
# top-level "assembler" section, and the host nanoseconds per
# simulated cycle of each long-jobs spec with the statistics package
# on and off (bench_sim_cycle) as a top-level "sim_cycle" section.
#
#   scripts/run_benchmarks.sh [build-dir] [min-time]
#
# The build directory defaults to build/; min-time is the
# --benchmark_min_time seed-time per measurement (default 0.2).
set -eu

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
MIN_TIME="${2:-0.2}"
OUT="BENCH_$(date +%Y%m%d).json"

if [ ! -d "$BUILD/bench" ]; then
    echo "run_benchmarks: no $BUILD/bench — build the tree first" >&2
    exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

for bin in "$BUILD"/bench/bench_*; do
    [ -x "$bin" ] || continue
    name="$(basename "$bin")"
    echo "==> $name"
    # The reproduction tables go to stdout; JSON timing to a file.
    "$bin" --benchmark_min_time="$MIN_TIME" \
           --benchmark_out_format=json \
           --benchmark_out="$TMP/$name.json" > /dev/null
done

COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain --untracked-files=no 2>/dev/null)" ]; then
    DIRTY=true
else
    DIRTY=false
fi

python3 - "$TMP" "$OUT" "$BUILD" "$COMMIT" "$DIRTY" "$(nproc)" <<'EOF'
import json, os, sys, datetime

tmp, out, build, commit, dirty, nproc = sys.argv[1:7]
merged = {
    "date": datetime.datetime.now().isoformat(timespec="seconds"),
    "build_dir": build,
    "commit": commit,
    "dirty": dirty == "true",
    "nproc": int(nproc),
    "build_type": None,
    "compiler": None,
    "benchmarks": [],
}
for fname in sorted(os.listdir(tmp)):
    with open(os.path.join(tmp, fname)) as f:
        doc = json.load(f)
    binary = fname[: -len(".json")]
    # Every bench binary reports its own build (bench_util.hh).
    context = doc.get("context", {})
    for key in ("build_type", "compiler"):
        if merged[key] is None:
            merged[key] = context.get(key)
    for b in doc.get("benchmarks", []):
        # google-benchmark reports real_time/cpu_time in `time_unit`s.
        scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}[
            b.get("time_unit", "ns")]
        entry = {
            "binary": binary,
            "name": b["name"],
            "wall_time_ms": b["real_time"] * scale,
            "cpu_time_ms": b["cpu_time"] * scale,
            "iterations": b.get("iterations"),
        }
        for counter in ("machine_cycles_per_s", "machines_per_s",
                        "jobs_per_s", "us_per_program", "programs",
                        "us_per_line", "lines", "ns_per_cycle",
                        "sim_cycles"):
            if counter in b:
                entry[counter] = b[counter]
        merged["benchmarks"].append(entry)

# xfarm thread-scaling summary: farmSuite/<workers>/real_time wall
# times and the speedup curve against the serial run.
scaling = {
    int(b["name"].split("/")[1]): b["wall_time_ms"]
    for b in merged["benchmarks"]
    if b["binary"] == "bench_farm_scaling"
    and b["name"].startswith("farmSuite/")
}
if scaling:
    base = scaling.get(1)
    merged["xfarm_scaling"] = [
        {
            "jobs": jobs,
            "wall_time_ms": ms,
            "speedup": round(base / ms, 3) if base and ms else None,
        }
        for jobs, ms in sorted(scaling.items())
    ]

# Compiler timing summary: the sched pipeline's stage costs
# (bench_sched_compile) as their own section, so compile-time
# regressions are visible without grepping the flat list.
sched = [
    {"name": b["name"], "wall_time_ms": round(b["wall_time_ms"], 4)}
    for b in merged["benchmarks"]
    if b["binary"] == "bench_sched_compile"
]
if sched:
    merged["sched_compile"] = sched

# Frontend/Livermore summary (bench_frontend_compile): per-kernel
# lex+parse+lower, direct and spilling allocation, and the full
# C-to-assembly compile, so frontend and allocator regressions are
# visible without grepping the flat list.
LIVERMORE = ["livermore1", "livermore2", "livermore3", "livermore12"]
front = {
    b["name"]: round(b["wall_time_ms"], 5)
    for b in merged["benchmarks"]
    if b["binary"] == "bench_frontend_compile"
}
if front:
    kernels = []
    for i, kernel in enumerate(LIVERMORE):
        arg = "/kernel:%d" % i
        kernels.append({
            "kernel": kernel,
            "lower_ms": front.get("frontendLower" + arg),
            "alloc_direct_ms": front.get("allocateDirect" + arg),
            "alloc_spill_ms": front.get("allocateSpill" + arg),
            "full_compile_ms": front.get("fullCompile" + arg),
        })
    merged["livermore_frontend"] = kernels

# Exact-scheduler summary (bench_exact_sched): per-width solve time
# for the exact tier next to the heuristic baseline plus the
# budget-exhausted fallback cost, so search-cost regressions are
# visible without grepping the flat list. The gap histogram itself is
# deterministic (printed by the binary's reproduction tables and
# pinned by the ci exact-parity stage), so only timings live here.
exact_rows = {
    b["name"]: round(b["wall_time_ms"], 5)
    for b in merged["benchmarks"]
    if b["binary"] == "bench_exact_sched"
}
if exact_rows:
    solves = []
    for name, ms in sorted(exact_rows.items()):
        if not name.startswith("exactSolve/"):
            continue
        width = name.rsplit(":", 1)[1]
        heur = exact_rows.get("heuristicSolve/width:" + width)
        solves.append({
            "width": int(width),
            "exact_ms": ms,
            "heuristic_ms": heur,
            "slowdown": round(ms / heur, 3) if heur else None,
        })
    merged["exact_sched"] = {
        "solves": solves,
        "fallback_ms": exact_rows.get("exactFallback"),
    }

# Batch-throughput summary: batchThroughput/<width> rows (width 1 is
# the scalar farm) with jobs/s, aggregate simulated cycles/s and the
# speedup over the scalar baseline. The width-1 row is the scalar
# target (>= 20k jobs/s); the speedups show what batching still adds
# over it (DESIGN.md section 13).
widths = {
    int(b["name"].rsplit("/", 1)[1]): b
    for b in merged["benchmarks"]
    if b["binary"] == "bench_batch_throughput"
    and b["name"].startswith("batchThroughput/")
}
if widths:
    base = widths.get(1, {}).get("jobs_per_s")
    merged["batch_throughput"] = [
        {
            "width": w,
            "jobs_per_s": b.get("jobs_per_s"),
            "machine_cycles_per_s": b.get("machine_cycles_per_s"),
            "speedup": round(b["jobs_per_s"] / base, 3)
            if base and b.get("jobs_per_s") else None,
        }
        for w, b in sorted(widths.items())
    ]

# Race-lint summary (bench_race_lint): analyzeRaces microseconds per
# program over each lint corpus (built-in grid, xcc/C goldens, 200
# random programs, Livermore compiles) -- the cost that decides
# whether the race engine can run as the always-on cross-stream check.
lint = [
    {
        "corpus": b["name"].split("/", 1)[1],
        "programs": int(b["programs"]),
        "us_per_program": round(b["us_per_program"], 2),
    }
    for b in merged["benchmarks"]
    if b["binary"] == "bench_race_lint" and "us_per_program" in b
]
if lint:
    merged["race_lint"] = lint

# Assembler summary (bench_assemble): assembleString microseconds per
# source line over three text corpora (the built-in suite, the
# Livermore compiles, one 65536-value data line) and writeAssembly
# microseconds per program -- the text boundary every program crosses.
assembler = {"assemble": [], "write": []}
for b in merged["benchmarks"]:
    if b["binary"] != "bench_assemble":
        continue
    kind, corpus = b["name"].split("/", 1)
    if kind == "assemble" and "us_per_line" in b:
        assembler["assemble"].append({
            "corpus": corpus,
            "lines": int(b["lines"]),
            "us_per_line": round(b["us_per_line"], 4),
        })
    elif kind == "write" and "us_per_program" in b:
        assembler["write"].append({
            "corpus": corpus,
            "programs": int(b["programs"]),
            "us_per_program": round(b["us_per_program"], 3),
        })
if assembler["assemble"] or assembler["write"]:
    merged["assembler"] = assembler

# Simulated-cycle summary (bench_sim_cycle): host ns per simulated
# cycle of each long-jobs spec, observed (default config: stats and
# partition tracking) and bare (withoutObservers()); the difference is
# what the section 4.1 statistics package costs per cycle.
sim_cycle = {}
for b in merged["benchmarks"]:
    if b["binary"] != "bench_sim_cycle" or "ns_per_cycle" not in b:
        continue
    _, workload, mode, kind = b["name"].split("/")
    row = sim_cycle.setdefault(workload + "/" + mode,
                               {"spec": workload + "/" + mode})
    row["sim_cycles"] = int(b["sim_cycles"])
    row[kind + "_ns_per_cycle"] = round(b["ns_per_cycle"], 2)
for row in sim_cycle.values():
    if "observed_ns_per_cycle" in row and "bare_ns_per_cycle" in row:
        row["accounting_ns_per_cycle"] = round(
            row["observed_ns_per_cycle"] - row["bare_ns_per_cycle"], 2)
if sim_cycle:
    merged["sim_cycle"] = list(sim_cycle.values())

# Execution-backend summary: every simulate*/<backend>/... row pairs
# an interpreter run with its threaded-code twin; report simulated
# cycles/s for both and the speedup, keyed by the backend-free name.
pairs = {}
for b in merged["benchmarks"]:
    name = b["name"]
    if not name.startswith("simulate") or "/" not in name:
        continue
    parts = name.split("/")
    if len(parts) < 2 or parts[1] not in ("interp", "threaded"):
        continue
    key = parts[0] + "/" + "/".join(parts[2:])
    pairs.setdefault(key, {})[parts[1]] = b.get(
        "machine_cycles_per_s")
backends = []
for key, row in sorted(pairs.items()):
    interp, threaded = row.get("interp"), row.get("threaded")
    backends.append({
        "name": key,
        "interp_cycles_per_s": interp,
        "threaded_cycles_per_s": threaded,
        "speedup": round(threaded / interp, 3)
        if interp and threaded else None,
    })
if backends:
    merged["execution_backends"] = backends

with open(out, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
print(f"wrote {out} ({len(merged['benchmarks'])} benchmark entries)")
EOF

#!/usr/bin/env python3
"""Repository benchmark: build the perfbench binary from source, run one
workload, check its output, and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--record FILE] [--tiny] [--corrupt]

Workloads (see BENCHMARK.json for why each exists):
  short-jobs   the 18-spec built-in grid at n=64 through Farm::run
  long-jobs    the data-driven workloads at n=65536 through Farm::run
  livermore-c  C kernels compiled and run in process (xcc + xsim path)
  service-rt   submit -> results round trips against farm::Service

The binary is built with CMake into $CARGO_TARGET_DIR/perfbench-<type>
(default .bench_build/, relative to the checkout) on first use; later
runs only re-check the build. --trace 0 measures the end-to-end metrics
with tracing off; --trace 1 measures the per-layer metrics from an
in-memory span trace (written to <build>/traces/) and reports the
tracing overhead against an untraced pass of the same run.

Standard output ends with one JSON line:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
and the line before it is {"provenance": {...}}: commit and dirty flag
(when the checkout is a git work tree), a digest of the sources, nproc,
build type, compiler, seed, workload, whether the run was traced, the
simulated-statistics digest, and whether the run is a valid timing
baseline. --record FILE appends both as one JSON line, the input of
perfbench/compare.py.

--tiny shrinks every input (for the benchmark's own tests); --corrupt
corrupts one output per unit of work so the checks must count failures.
Neither is a valid baseline.

Exit status: 0 after a completed run; 1 when building, running or
checking failed; 3 when a traced run's replay disagreed with its
untraced pass (simulated-statistics digest mismatch).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
RESULT_KEYS = ["correct", "attempted", "failed", "metrics"]


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench-" + BUILD_TYPE.lower())


def run_quiet(cmd):
    """Run a build step with its output on stderr; raise on failure."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        raise BenchError("build step failed: " + " ".join(cmd))


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "machine.hh")):
        raise BenchError("simulator sources not found under " + ROOT)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        log("configuring " + bdir)
        run_quiet(cmd)
    run_quiet(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)])
    return os.path.join(bdir, "perfbench")


def git(*args):
    proc = subprocess.run(["git", "-C", ROOT] + list(args),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """sha256 over the files the benchmark builds and reads."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", os.path.join("examples", "c")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def provenance(args, context):
    commit = dirty = None
    if shutil.which("git") and os.path.exists(os.path.join(ROOT, ".git")):
        commit = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    # CMake folds $CXXFLAGS into the build; a sanitizer, coverage or -O0
    # build times something other than what users run.
    cxxflags = os.environ.get("CXXFLAGS", "")
    instrumented = any(flag in cxxflags for flag in (
        "-fsanitize", "--coverage", "-fprofile-arcs", "-O0"))
    valid = (context.get("optimized") is True
             and context.get("build_type") in ("Release", "RelWithDebInfo")
             and not instrumented and not args.tiny and not args.corrupt)
    return {
        "commit": commit,
        "dirty": dirty,
        "source_sha256": source_digest(),
        "nproc": context.get("nproc"),
        "build_type": context.get("build_type"),
        "compiler": context.get("compiler"),
        "cxxflags": cxxflags,
        "seed": args.seed,
        "workload": args.workload,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "digest": context.get("digest"),
        "traced_digest": context.get("traced_digest"),
        "valid_baseline": valid,
        "info": context.get("info", {}),
    }


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def check_result(result, traced):
    if list(result) != RESULT_KEYS:
        raise BenchError("result keys %s, want %s" % (list(result),
                                                      RESULT_KEYS))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(traced)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise BenchError("metrics differ from BENCHMARK.json: missing %s, "
                         "unexpected %s" % (missing, extra))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["short-jobs", "long-jobs", "livermore-c",
                             "service-rt"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", help="append provenance + result here")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    try:
        bdir = build_dir()
        binary = build(bdir)
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--source-dir", ROOT]
        if args.trace:
            traces = os.path.join(bdir, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
        if args.tiny:
            cmd.append("--tiny")
        if args.corrupt:
            cmd.append("--corrupt")
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError("run exceeded %d s" % RUN_TIMEOUT_S)
        if proc.returncode != 0:
            log("perfbench exited with status %d" % proc.returncode)
            return 3 if proc.returncode == 3 else 1
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2:
            raise BenchError("perfbench printed no result")
        context = json.loads(lines[-2])["perfbench"]
        result = json.loads(lines[-1])
        check_result(result, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(str(e))
        return 1

    prov = provenance(args, context)
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"provenance": prov, "result": result}) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

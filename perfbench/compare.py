#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are record files written by `run.py --record FILE` (one
JSON object per line), or directories of such *.jsonl files. For every
workload x metric the tool prints each side's median and quartiles and
a verdict:

  ok          the new median is not worse than the old by more than the
              metric's bound from BENCHMARK.json
  REGRESSION  it is worse by more than the bound, and both sides'
              quartile spread is within the bound
  unresolved  a side's quartile spread (as a share of its median) is
              wider than the bound, so the runs cannot tell; unless every
              new run is better than every old run
  info        a per-layer metric, which has no bound

A simulated-statistics digest that differs between runs of one
workload and seed, on either side or across sides, or between a traced
run and its untraced pass, is a hard failure: the two sides did not
simulate the same thing.

Exit status: 0 no regression, 1 at least one regression, 2 digest
mismatch or unusable input.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_records(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".jsonl"))
    records = []
    for name in files:
        with open(name) as f:
            records += [json.loads(line) for line in f if line.strip()]
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def digest_failures(old, new):
    """Human-readable digest mismatches between and within both sides."""
    seen = {}
    problems = []
    for side, records in (("old", old), ("new", new)):
        for rec in records:
            p = rec["provenance"]
            key = (p["workload"], p["seed"])
            if p.get("traced") and p.get("traced_digest") != p["digest"]:
                problems.append("%s %s seed %s: traced replay digest %s != "
                                "untraced %s" % (side, key[0], key[1],
                                                 p.get("traced_digest"),
                                                 p["digest"]))
            first = seen.setdefault(key, (side, p["digest"]))
            if first[1] != p["digest"]:
                problems.append("%s seed %s: %s digest %s != %s digest %s" % (
                    key[0], key[1], first[0], first[1], side, p["digest"]))
    return problems


def verdict(old, new, bound, better):
    if bound is None:
        return "info"
    o1, om, o3 = quartiles(old)
    n1, nm, n3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse = om != 0 and sign * (nm - om) / abs(om) > bound
    spread = max((o3 - o1) / abs(om) if om else 0.0,
                 (n3 - n1) / abs(nm) if nm else 0.0)
    all_better = all(sign * (n - o) < 0 for n in new for o in old)
    if spread > bound and not all_better:
        return "unresolved"
    return "REGRESSION" if worse else "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args()

    try:
        old = load_records(args.old)
        new = load_records(args.new)
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        print("compare: " + str(e), file=sys.stderr)
        return 2
    if not old or not new:
        print("compare: a side has no records", file=sys.stderr)
        return 2

    meta = {m["name"]: (m.get("bound"), m["better"])
            for m in spec["end_to_end"] + spec["per_layer"]}
    problems = digest_failures(old, new)
    for p in problems:
        print("DIGEST MISMATCH: " + p)

    def group(records):
        out = {}
        for rec in records:
            p = rec["provenance"]
            for name, m in rec["result"]["metrics"].items():
                key = (p["workload"], name)
                out.setdefault(key, []).append(m["value"])
        return out

    gold, gnew = group(old), group(new)
    regressions = 0
    print("%-12s %-30s %-10s %-36s %-36s %s" % (
        "workload", "metric", "verdict", "old median [q1, q3] (n)",
        "new median [q1, q3] (n)", "change"))
    for key in sorted(set(gold) & set(gnew)):
        bound, better = meta.get(key[1], (None, "lower"))
        ov, nv = gold[key], gnew[key]
        v = verdict(ov, nv, bound, better)
        regressions += v == "REGRESSION"
        o1, om, o3 = quartiles(ov)
        n1, nm, n3 = quartiles(nv)
        change = "%+.1f%%" % (100.0 * (nm - om) / abs(om)) if om else "-"
        print("%-12s %-30s %-10s %-36s %-36s %s" % (
            key[0], key[1], v,
            "%.6g [%.6g, %.6g] (%d)" % (om, o1, o3, len(ov)),
            "%.6g [%.6g, %.6g] (%d)" % (nm, n1, n3, len(nv)), change))
    if problems:
        return 2
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())

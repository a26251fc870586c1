#!/usr/bin/env python3
"""A/B comparison of bench_e2e results against the BENCHMARK.json bounds.

  compare.py run --parent <checkout> --change <checkout> --out <dir>
                 [--pairs 10] [--seed 1] [--seconds N] [--workloads w ...]
      Runs `bash bench/e2e/run.sh` in both checkouts, alternating which side
      runs first, one pair per seed, and writes one result JSON per run to
      <dir>/{parent,change}/<workload>-<seed>.json. Then diffs them. The
      workloads default to those BENCHMARK.json gates; --workloads
      churn_cold adds the one it leaves out.

  compare.py diff --parent <dir> --change <dir>
      Compares two sets of result JSONs (written with run.sh --out), per
      workload x metric. Pairs are matched by seed.

  compare.py spread <dir>
      The run-to-run spread of one set: (q3 - q1) / median per workload x
      metric, against the metric's bound and a third of it.

Rules (the benchmark's acceptance method):
  * Each side reports its median and quartiles
    (statistics.quantiles(values, n=4)).
  * worse: the change's median is worse than the parent's by more than the
    metric's bound (a share of the parent's median).
  * unresolved: either side's spread exceeds the bound, unless every change
    run reads better than every parent run.
  * better: the change wins at least 9/10 of the pairs (ties count for
    neither) and the medians differ by more than the parent's IQR.
  * same: none of the above.
Exit code 1 when any end-to-end metric is worse or unresolved. Per-layer
metrics have no bound and are not compared; they stay in the result JSONs.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def bench_json():
    with open(BENCH) as f:
        return json.load(f)


def end_to_end_metrics():
    """{name: metric} of BENCHMARK.json's end-to-end metrics."""
    return {m["name"]: m for m in bench_json()["end_to_end"]}


def load_results(directory):
    """{workload: {seed: result}} from every *.json under directory."""
    out = {}
    for base, _, files in os.walk(directory):
        for name in sorted(files):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(base, name)) as f:
                result = json.load(f)
            if "workload" not in result or "metrics" not in result:
                continue
            out.setdefault(result["workload"], {})[result["seed"]] = result
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def metric_values(results, name):
    return [r["metrics"][name]["value"] for r in results
            if name in r["metrics"]]


def verdict(metric, parent, change, pairs):
    """parent/change: lists of values; pairs: list of (parent, change)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]

    def better(c, p):
        return c < p if lower else c > p

    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse_share = ((cm - pm) if lower else (pm - cm)) / abs(pm) if pm else 0.0
    wins = sum(1 for p, c in pairs if better(c, p))
    all_better = all(better(c, p) for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved", worse_share, wins
    if worse_share > bound:
        return "worse", worse_share, wins
    if pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1):
        return "better", worse_share, wins
    return "same", worse_share, wins


def fmt(v):
    return f"{v:.4g}"


def diff(args):
    e2e = end_to_end_metrics()
    parent = load_results(args.parent)
    change = load_results(args.change)
    bad = 0
    for workload in sorted(set(parent) | set(change)):
        p_runs = parent.get(workload, {})
        c_runs = change.get(workload, {})
        # Pairs share a seed; two sets run on disjoint seeds pair up in
        # seed order instead.
        seeds = sorted(set(p_runs) & set(c_runs))
        run_pairs = ([(p_runs[s], c_runs[s]) for s in seeds] if seeds else
                     list(zip((p_runs[s] for s in sorted(p_runs)),
                              (c_runs[s] for s in sorted(c_runs)))))
        print(f"\n== {workload}: {len(p_runs)} parent runs, "
              f"{len(c_runs)} change runs, {len(run_pairs)} pairs")
        print(f"  {'metric':34} {'parent median [q1, q3]':>32} "
              f"{'change median [q1, q3]':>32} {'worse':>8} {'wins':>6} "
              f"{'bound':>6}  verdict")
        for name, metric in e2e.items():
            pv = metric_values(p_runs.values(), name)
            cv = metric_values(c_runs.values(), name)
            if not pv or not cv:
                continue
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                     for p, c in run_pairs
                     if name in p["metrics"] and name in c["metrics"]]
            pq, cq = quartiles(pv), quartiles(cv)
            ptxt = f"{fmt(pq[1])} [{fmt(pq[0])}, {fmt(pq[2])}]"
            ctxt = f"{fmt(cq[1])} [{fmt(cq[0])}, {fmt(cq[2])}]"
            v, worse_share, wins = verdict(metric, pv, cv, pairs)
            bad += v in ("worse", "unresolved")
            print(f"  {name:34} {ptxt:>32} {ctxt:>32} "
                  f"{worse_share * 100:7.2f}% {wins:>2}/{len(pairs):<3} "
                  f"{metric['bound']:6.2f}  {v}")
    failed = [(side, w, s) for side, runs in (("parent", parent),
                                               ("change", change))
              for w, by_seed in runs.items() for s, r in by_seed.items()
              if not r.get("correct", False)]
    for side, w, s in failed:
        print(f"FAIL: {side} {w} seed {s} reported correct=false")
    return 1 if bad or failed else 0


def spread_cmd(args):
    e2e = end_to_end_metrics()
    runs = load_results(args.dir)
    bad = 0
    for workload in sorted(runs):
        results = list(runs[workload].values())
        print(f"\n== {workload}: {len(results)} runs")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  check")
        for name, metric in e2e.items():
            values = metric_values(results, name)
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            s = spread(values)
            bound = metric["bound"]
            if name == "setup_s":
                check = "exempt"
            elif s > bound:
                check, bad = "OVER BOUND", bad + 1
            elif s > bound / 3:
                check = "over bound/3"
            else:
                check = "ok"
            print(f"  {name:34} {fmt(q2):>12} {fmt(q1):>12} {fmt(q3):>12} "
                  f"{s * 100:7.2f}% {bound:6.2f}  {check}")
    return 1 if bad else 0


def bench_digest(checkout):
    h = hashlib.sha256()
    root = os.path.join(checkout, "bench", "e2e")
    for base, dirs, files in sorted(os.walk(root)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_cmd(args):
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    if bench_digest(sides["parent"]) != bench_digest(sides["change"]):
        print("warning: bench/e2e differs between the two checkouts; the "
              "comparison is only fair with identical benchmark code",
              file=sys.stderr)
    workloads = args.workloads or [w["name"]
                                   for w in bench_json()["workloads"]]
    out = os.path.abspath(args.out)
    failures = 0
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                os.makedirs(os.path.join(out, side), exist_ok=True)
                path = os.path.join(out, side, f"{workload}-{seed}.json")
                cmd = ["bash", "bench/e2e/run.sh", "--workload", workload,
                       "--seed", str(seed), "--trace", "0", "--out", path]
                if args.seconds is not None:
                    cmd += ["--seconds", str(args.seconds)]
                print(f"[pair {i + 1}/{args.pairs}] {side} {workload} "
                      f"seed {seed}", file=sys.stderr)
                done = subprocess.run(cmd, cwd=sides[side],
                                      stdout=subprocess.DEVNULL)
                if done.returncode != 0:
                    failures += 1
                    print(f"  exit code {done.returncode}", file=sys.stderr)
    args.parent, args.change = (os.path.join(out, "parent"),
                                os.path.join(out, "change"))
    return max(diff(args), 1 if failures else 0)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("diff")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.set_defaults(func=diff)
    p = sub.add_parser("spread")
    p.add_argument("dir")
    p.set_defaults(func=spread_cmd)
    p = sub.add_parser("run")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--workloads", nargs="*")
    p.set_defaults(func=run_cmd)
    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()

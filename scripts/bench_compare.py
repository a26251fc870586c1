#!/usr/bin/env python3
"""Compare google-benchmark JSON runs against a checked-in baseline.

The perf-smoke CI job runs bench_micro five times, each with
--benchmark_out=run-<i>.json, and gates on:

    python3 scripts/bench_compare.py bench/micro/baseline.json \
        run-1.json run-2.json run-3.json run-4.json run-5.json

Statistic: within one run a row's time is the median of its repetitions
(or its single time); across the runs given, a row is gated on the MINIMUM
of those per-run medians. On a shared host a row's median moves 10-20%
between otherwise identical runs, because neighbours steal time from
whole runs; the fastest of several runs is the one least disturbed, and a
real slowdown still shows in every run. The baseline row itself is read
with the same per-run median.

A benchmark REGRESSES when its time exceeds baseline * (1 + tolerance);
a benchmark present in the baseline but missing from the run is an error
(renames must update the baseline deliberately, not silently drop the gate).
Benchmarks absent from the baseline are an error too by default — an entry
that never enters the baseline is never gated. Pass --allow-new to downgrade
them to a warning (the PR that introduces a benchmark runs before its
baseline refresh lands); existing entries are still gated either way, and
the next --update run adopts the new ones.

Cross-host noise: raw nanoseconds only compare cleanly on the machine that
produced the baseline. --normalize divides every time by the run's own
`calibration` benchmark (a fixed serial FP chain that tracks host speed and
nothing in this repository), which makes the ratio portable between hosts of
the same ISA generation. Rate counters (".../thr" suites, GB/s, GFLOP/s) are
skipped: they are derived views of the same times.

Refresh the baseline after an intentional perf change with:

    python3 scripts/bench_compare.py baseline.json current.json --update

Rule for refreshing a row that FAILS the gate: refresh it only when the
parent commit fails the same row under the same statistic (the minimum of
its per-run medians over as many runs, against the same baseline and
tolerance) — then the failure is the host or the baseline, not the change.
A row that the parent passes and the change fails is a regression to fix,
not a row to refresh. --update takes a single run.
"""

import argparse
import json
import sys


def load_times(path, normalize):
    """Returns {benchmark name: cpu_time in ns (possibly normalized)}.

    When the run used --benchmark_repetitions, the median aggregates are
    used instead of the individual repetitions — on shared/noisy hosts a
    single repetition can swing well past any sane tolerance.
    """
    with open(path) as f:
        doc = json.load(f)
    raw, medians = {}, {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[b["run_name"]] = float(b["cpu_time"])
            continue
        raw[b["name"]] = float(b["cpu_time"])
    times = medians if medians else raw
    times = {k: v for k, v in times.items() if "/thr" not in k}
    # throughput twins re-measure what the /lat twin gates; skip them
    if normalize:
        cal = times.get("calibration")
        if not cal:
            sys.exit(f"{path}: --normalize needs a 'calibration' benchmark")
        times = {k: v / cal for k, v in times.items() if k != "calibration"}
    return times


def min_of_runs(paths, normalize):
    """Returns {benchmark name: min over runs of the run's (median) time}.

    A row missing from some runs is gated on the runs that have it.
    """
    best = {}
    for path in paths:
        for name, t in load_times(path, normalize).items():
            best[name] = min(t, best.get(name, t))
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="checked-in baseline JSON")
    ap.add_argument("current", nargs="+",
                    help="one or more fresh --benchmark_out JSONs; each row "
                         "is gated on the minimum of its per-run medians")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional slowdown per benchmark "
                         "(default 0.25 = +25%%)")
    ap.add_argument("--normalize", action="store_true",
                    help="divide every time by the run's own 'calibration' "
                         "benchmark before comparing (cross-host runs)")
    ap.add_argument("--allow-new", action="store_true",
                    help="warn (instead of fail) on benchmarks absent from "
                         "the baseline; existing entries are still gated")
    ap.add_argument("--update", action="store_true",
                    help="overwrite the baseline with the current run "
                         "instead of comparing")
    args = ap.parse_args()

    if args.update:
        if len(args.current) != 1:
            sys.exit("--update takes exactly one current run")
        with open(args.current[0]) as f:
            doc = json.load(f)
        with open(args.baseline, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        print(f"baseline refreshed from {args.current[0]}")
        return 0

    base = load_times(args.baseline, args.normalize)
    cur = min_of_runs(args.current, args.normalize)
    if len(args.current) > 1:
        print(f"current: minimum of per-run medians over "
              f"{len(args.current)} runs")

    regressions = []
    improvements = []
    missing = sorted(set(base) - set(cur))
    new = sorted(set(cur) - set(base))
    width = max((len(n) for n in base), default=0)
    print(f"{'benchmark':<{width}}  {'base':>10}  {'curr':>10}  ratio")
    for name in sorted(base):
        if name not in cur:
            continue
        ratio = cur[name] / base[name] if base[name] else float("inf")
        flag = ""
        if ratio > 1.0 + args.tolerance:
            regressions.append((name, ratio))
            flag = "  REGRESSION"
        elif ratio < 1.0 - args.tolerance:
            improvements.append((name, ratio))
            flag = "  improved"
        print(f"{name:<{width}}  {base[name]:>10.1f}  {cur[name]:>10.1f}  "
              f"{ratio:5.2f}x{flag}")

    for name in new:
        print(f"{name:<{width}}  {'-':>10}  {cur[name]:>10.1f}  (new, not gated)")
    for name, ratio in improvements:
        print(f"note: {name} improved {ratio:.2f}x — consider --update")

    ok = True
    if missing:
        ok = False
        for name in missing:
            print(f"ERROR: baseline benchmark missing from run: {name}")
    if new:
        if args.allow_new:
            for name in new:
                print(f"WARNING: benchmark not in baseline (ungated): {name}")
            print("note: refresh the baseline with --update to gate them")
        else:
            ok = False
            for name in new:
                print(f"ERROR: benchmark not in baseline: {name} "
                      f"(--update the baseline, or pass --allow-new)")
    if regressions:
        ok = False
        for name, ratio in regressions:
            print(f"ERROR: {name} regressed {ratio:.2f}x "
                  f"(tolerance {1.0 + args.tolerance:.2f}x)")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

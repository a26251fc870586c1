#!/usr/bin/env bash
# Builds bench_e2e from this checkout's sources and runs it.
#
#   bash bench/e2e/run.sh --workload <w> --seed <n> [--seconds <s>]
#                         [--trace 0|1] [--out <file>] [--trace-out <file>]
#       one workload, one process; the last stdout line is the result JSON.
#       --seconds sets the number of passes over the workload's list (its
#       nominal length divided by one pass's nominal time), not a deadline
#   bash bench/e2e/run.sh --seed <n> [...]
#       every workload, each in its own process
#   bash bench/e2e/run.sh --smoke
#       every workload at a tenth of its list with every answer replayed
#
# The build lives in ${CARGO_TARGET_DIR:-.bench_build}/e2e-<hash of this
# checkout's path>; data directories are made (and removed) under it. Build
# output goes to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
workloads="suite_solo hot_batch churn_cold emulated_mix"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: the refloat sources are not at $root" >&2
  exit 2
fi

# One build directory per checkout: a CMake cache is tied to the source
# tree it was configured from, so two checkouts sharing CARGO_TARGET_DIR
# (compare.py run builds parent and change) must not share a build.
target="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$target" = /* ]] || target="$PWD/$target"
build="$target/e2e-$(printf '%s' "$root" | sha1sum | cut -c1-12)"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target bench_e2e -j "$(nproc)" >&2

# One pool thread: the daemon's dispatcher runs every sweep itself. With a
# second pool thread each sweep wakes another vCPU, and on a shared host
# the wake-up delay follows the neighbours' load: over eight runs of
# suite_solo, latency_p50_ms spread 30% with two threads and 18% with one.
# Results are bit-identical at any thread count. The other knobs are unset
# so the defaults run.
export REFLOAT_THREADS=1
export REFLOAT_LOG=quiet
unset REFLOAT_TILES REFLOAT_SIMD REFLOAT_AFFINITY REFLOAT_FAULTS

sha=unknown
if [[ -e "$root/.git" ]]; then
  sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
bench=("$build/bench_e2e" --data-root "$build/tmp" --git-sha "$sha")

if [[ " $* " == *" --smoke "* ]]; then
  start=$SECONDS
  for w in $workloads; do
    echo "== smoke: $w" >&2
    "${bench[@]}" --workload "$w" --seed 1 --smoke --trace 1 >&2
  done
  echo "smoke OK: every workload checked in $((SECONDS - start)) s" >&2
  exit 0
fi

if [[ " $* " == *" --workload "* ]]; then
  exec "${bench[@]}" "$@"
fi

if [[ " $* " == *" --out "* || " $* " == *" --trace-out "* ]]; then
  echo "run.sh: --out and --trace-out need --workload" >&2
  exit 2
fi
for w in $workloads; do
  "${bench[@]}" --workload "$w" "$@"
done

#!/usr/bin/env bash
# Parallel bench sweep: launches every harness bench binary across processes
# and aggregates the per-matrix solve-record shards into the published
# tables in one pass. Safe to parallelize because the ResultCache appends
# one row per solve under an exclusive flock to data/results/<matrix>.csv —
# concurrent writers never lose or interleave rows (tests/test_result_cache.cc).
#
# Usage: scripts/bench_sweep.sh [build_dir] [jobs]
#   build_dir  where the bench binaries live (default: build)
#   jobs       process parallelism (default: nproc)
#
# Outputs: results/<bench>.csv per bench (as always), results/<bench>.log
# per-bench console output, and results/all_solves.csv from bench_aggregate.
# Wall-clock records go under results/timing/, so results/*.csv of two runs
# of one build compare byte for byte.
set -euo pipefail

BUILD_DIR=${1:-build}
JOBS=${2:-$(nproc)}

# Every table/figure bench. bench_aggregate runs LAST, single-process, after
# the fleet has drained, so it sees the complete shard set.
BENCHES=(
  bench_ablation_adc
  bench_ablation_base
  bench_ablation_blocksize
  bench_ablation_faults
  bench_ablation_policy
  bench_ablation_vector_window
  bench_batch
  bench_energy
  bench_ext_ordering
  bench_fig10
  bench_fig3
  bench_fig8
  bench_fig9
  bench_format_zoo
  bench_schedule
  bench_table1
  bench_table5
  bench_table6
  bench_table8
  bench_tiles
)

for bench in "${BENCHES[@]}"; do
  if [[ ! -x "$BUILD_DIR/$bench" ]]; then
    echo "error: $BUILD_DIR/$bench not built (run: cmake --build $BUILD_DIR -j)" >&2
    exit 1
  fi
done

mkdir -p results

echo "sweep: ${#BENCHES[@]} benches across $JOBS processes (build: $BUILD_DIR)"
printf '%s\n' "${BENCHES[@]}" |
  xargs -P "$JOBS" -I '{}' sh -c \
    '"$1/$2" > "results/$2.log" 2>&1 && echo "  done  $2" || { echo "  FAIL  $2 (see results/$2.log)"; exit 1; }' \
    sh "$BUILD_DIR" '{}'

echo "sweep: aggregating solve-record shards"
"$BUILD_DIR/bench_aggregate"

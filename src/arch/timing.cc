#include "src/arch/timing.h"

#include <algorithm>
#include <cmath>

#include "src/arch/cost.h"

namespace refloat::arch {

namespace {

// Shared closed form behind spmm_time (write_scale = 1) and
// bit_true_spmm_time (write_scale = write_verify_passes): one write per
// round, scaled, then k compute sweeps against the programmed image.
SpmvTiming spmm_time_scaled(const AcceleratorConfig& config,
                            std::size_t nonzero_blocks, long batch_k,
                            double write_scale) {
  SpmvTiming timing;
  timing.batch_k = std::max(batch_k, 1L);
  const DeploymentCost cost = deployment_cost(config, nonzero_blocks);
  timing.rounds = cost.rounds;
  timing.compute_seconds =
      static_cast<double>(cycles_per_block_mvm(config.format)) *
      config.op_latency_ns * 1e-9;
  timing.write_seconds = static_cast<double>(1L << config.crossbar_bits) *
                         config.row_write_ns * 1e-9 * write_scale;
  // Per round, the programmed image serves the whole batch before the next
  // reprogram: k compute passes against one write.
  const double round_compute =
      static_cast<double>(timing.batch_k) * timing.compute_seconds;
  if (cost.resident) {
    // Matrix stays programmed across iterations; a pass is pure compute.
    timing.seconds = round_compute;
  } else if (config.overlap_write_compute) {
    // Write round 1, then compute round r's batch while writing round r+1.
    timing.seconds = timing.write_seconds +
                     static_cast<double>(cost.rounds - 1) *
                         std::max(round_compute, timing.write_seconds) +
                     round_compute;
  } else {
    timing.seconds = static_cast<double>(cost.rounds) *
                     (timing.write_seconds + round_compute);
  }
  timing.per_rhs_seconds =
      timing.seconds / static_cast<double>(timing.batch_k);
  return timing;
}

}  // namespace

SpmvTiming spmm_time(const AcceleratorConfig& config,
                     std::size_t nonzero_blocks, long batch_k) {
  return spmm_time_scaled(config, nonzero_blocks, batch_k, 1.0);
}

SpmvTiming bit_true_spmm_time(const AcceleratorConfig& config,
                              std::size_t nonzero_blocks, long batch_k) {
  return spmm_time_scaled(config, nonzero_blocks, batch_k,
                          std::max(config.write_verify_passes, 1.0));
}

SpmvTiming spmv_time(const AcceleratorConfig& config,
                     std::size_t nonzero_blocks) {
  return spmm_time(config, nonzero_blocks, 1);
}

namespace {

// Tree depth of the tile interconnect: 0 for one tile (no links crossed).
int tile_tree_hops(int tiles) {
  int hops = 0;
  while ((1 << hops) < tiles) ++hops;
  return hops;
}

}  // namespace

TiledSpmvTiming tiled_spmm_time(const AcceleratorConfig& config,
                                std::span<const std::size_t> blocks_per_tile,
                                long long n, long batch_k) {
  TiledSpmvTiming timing;
  timing.batch_k = std::max(batch_k, 1L);
  const int tiles =
      blocks_per_tile.empty() ? 1 : static_cast<int>(blocks_per_tile.size());
  timing.tiles = tiles;
  timing.compute_seconds =
      static_cast<double>(cycles_per_block_mvm(config.format)) *
      config.op_latency_ns * 1e-9;
  timing.write_seconds = static_cast<double>(1L << config.crossbar_bits) *
                         config.row_write_ns * 1e-9;

  // Per-tile reprogram rounds under the per-tile capacity budget.
  timing.tile_rounds.assign(static_cast<std::size_t>(tiles), 1);
  for (int t = 0; t < tiles && !blocks_per_tile.empty(); ++t) {
    timing.tile_rounds[static_cast<std::size_t>(t)] =
        deployment_cost(config, blocks_per_tile[static_cast<std::size_t>(t)])
            .rounds;
  }
  timing.rounds =
      *std::max_element(timing.tile_rounds.begin(), timing.tile_rounds.end());

  const double ecc_round = config.ecc_round_ns * 1e-9;
  const double round_compute =
      static_cast<double>(timing.batch_k) * timing.compute_seconds + ecc_round;

  if (tiles == 1 && ecc_round == 0.0) {
    // One tile, ECC off: EXACTLY the monolithic closed form.
    const SpmvTiming mono = spmm_time(
        config, blocks_per_tile.empty() ? 0 : blocks_per_tile[0],
        timing.batch_k);
    timing.engine_seconds = mono.seconds;
    timing.seconds = mono.seconds;
    timing.per_rhs_seconds = mono.per_rhs_seconds;
    timing.tile_busy_seconds.assign(
        1, (mono.rounds > 1 ? static_cast<double>(mono.rounds) *
                                  timing.write_seconds
                            : 0.0) +
               static_cast<double>(mono.rounds) *
                   static_cast<double>(timing.batch_k) *
                   timing.compute_seconds);
    return timing;
  }

  // Shared host programming stream, double-buffered per tile: write jobs run
  // round-major / tile-minor, and the write of a tile's round k waits for
  // that tile's round k-2 compute (two block buffers per tile). Resident
  // tiles (1 round) never write in-pass; tiles compute concurrently.
  std::vector<std::vector<double>> compute_done(
      static_cast<std::size_t>(tiles));
  for (int t = 0; t < tiles; ++t) {
    compute_done[static_cast<std::size_t>(t)].assign(
        static_cast<std::size_t>(
            timing.tile_rounds[static_cast<std::size_t>(t)]),
        0.0);
  }
  timing.tile_busy_seconds.assign(static_cast<std::size_t>(tiles), 0.0);
  double writer_free = 0.0;
  for (long k = 0; k < timing.rounds; ++k) {
    for (int t = 0; t < tiles; ++t) {
      const std::size_t ti = static_cast<std::size_t>(t);
      const long r = timing.tile_rounds[ti];
      if (k >= r) continue;
      const std::size_t ki = static_cast<std::size_t>(k);
      double write_done = 0.0;
      if (r > 1) {
        double write_start;
        if (config.overlap_write_compute) {
          write_start = std::max(
              writer_free, k >= 2 ? compute_done[ti][ki - 2] : 0.0);
        } else {
          write_start = std::max(
              writer_free, k >= 1 ? compute_done[ti][ki - 1] : 0.0);
        }
        write_done = write_start + timing.write_seconds;
        writer_free = write_done;
        timing.tile_busy_seconds[ti] += timing.write_seconds;
      }
      const double compute_start =
          std::max(write_done, k > 0 ? compute_done[ti][ki - 1] : 0.0);
      compute_done[ti][ki] = compute_start + round_compute;
      timing.tile_busy_seconds[ti] += round_compute;
      timing.ecc_seconds += ecc_round;
    }
  }
  for (const auto& done : compute_done) {
    timing.engine_seconds = std::max(timing.engine_seconds, done.back());
  }

  // Interconnect: input broadcast down / partial-output reduction up a
  // binary tree of tiles. Both vanish at one tile (no links crossed).
  const int hops = tile_tree_hops(tiles);
  if (hops > 0) {
    const double hop_lat = static_cast<double>(hops) *
                           config.link_latency_ns * 1e-9;
    const double bw_bits =
        std::max(config.link_gbit_per_s, 1e-9) * 1e9;  // bits/s per link
    const core::Format& fmt = config.format;
    const double iv_bits = static_cast<double>(n) *
                           static_cast<double>(1 + fmt.ev + fmt.fv) *
                           static_cast<double>(timing.batch_k);
    const double ov_bits = static_cast<double>(n) * 64.0 *
                           static_cast<double>(timing.batch_k);
    timing.broadcast_seconds = hop_lat + iv_bits / bw_bits;
    timing.reduction_seconds = hop_lat + ov_bits / bw_bits;
  }

  timing.seconds = timing.broadcast_seconds + timing.engine_seconds +
                   timing.reduction_seconds;
  timing.per_rhs_seconds =
      timing.seconds / static_cast<double>(timing.batch_k);
  return timing;
}

SolverProfile cg_profile() { return SolverProfile{1, 5, 6}; }

SolverProfile bicgstab_profile() { return SolverProfile{2, 10, 12}; }

namespace {

// Solver-loop pricing around one SpMM closed form (value or bit-true):
// SpMVs merge into SpMM passes, digital vector ops stay per column.
SolveTime solve_time_around(const AcceleratorConfig& config,
                            const SpmvTiming& spmm, long long n,
                            long iterations, const SolverProfile& profile) {
  SolveTime time;
  time.batch_k = spmm.batch_k;
  const double lanes = static_cast<double>(std::max(config.vector_lanes, 1L));
  const double vector_op_seconds =
      static_cast<double>(n) / lanes * config.vector_ns_per_element * 1e-9;

  time.spmv_seconds = static_cast<double>(iterations) *
                      static_cast<double>(profile.spmvs_per_iteration) *
                      spmm.seconds;
  time.vector_seconds =
      static_cast<double>(profile.vector_ops(iterations, time.batch_k)) *
      vector_op_seconds;
  // A resident matrix pays its programming once up front; a non-resident one
  // already pays per round inside spmm_time.
  time.program_seconds = spmm.rounds <= 1 ? spmm.write_seconds : 0.0;
  time.total_seconds =
      time.spmv_seconds + time.vector_seconds + time.program_seconds;
  time.per_rhs_seconds =
      time.total_seconds / static_cast<double>(time.batch_k);
  return time;
}

}  // namespace

SolveTime accelerator_batched_solve_time(const AcceleratorConfig& config,
                                         std::size_t nonzero_blocks,
                                         long long n, long iterations,
                                         const SolverProfile& profile,
                                         long batch_k) {
  return solve_time_around(
      config, spmm_time(config, nonzero_blocks, std::max(batch_k, 1L)), n,
      iterations, profile);
}

SolveTime bit_true_batched_solve_time(const AcceleratorConfig& config,
                                      std::size_t nonzero_blocks, long long n,
                                      long iterations,
                                      const SolverProfile& profile,
                                      long batch_k) {
  return solve_time_around(
      config,
      bit_true_spmm_time(config, nonzero_blocks, std::max(batch_k, 1L)), n,
      iterations, profile);
}

SolveTime accelerator_solve_time(const AcceleratorConfig& config,
                                 std::size_t nonzero_blocks, long long n,
                                 long iterations,
                                 const SolverProfile& profile) {
  return accelerator_batched_solve_time(config, nonzero_blocks, n, iterations,
                                        profile, 1);
}

}  // namespace refloat::arch

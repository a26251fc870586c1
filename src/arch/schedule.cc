#include "src/arch/schedule.h"

#include <algorithm>
#include <vector>

#include "src/arch/cost.h"
#include "src/arch/timing.h"

namespace refloat::arch {

ScheduleStats simulate_spmv(const AcceleratorConfig& config,
                            const core::RefloatMatrix& rf) {
  ScheduleStats stats;
  const long long capacity = clusters(config);
  const std::size_t blocks = rf.nonzero_blocks();
  const double compute =
      static_cast<double>(cycles_per_block_mvm(config.format)) *
      config.op_latency_ns * 1e-9;
  const double write = static_cast<double>(1L << config.crossbar_bits) *
                       config.row_write_ns * 1e-9;

  // Partition blocks into rounds of `capacity`.
  std::vector<std::size_t> round_sizes;
  for (std::size_t assigned = 0; assigned < blocks;) {
    const std::size_t take = std::min<std::size_t>(
        blocks - assigned, static_cast<std::size_t>(capacity));
    round_sizes.push_back(take);
    assigned += take;
  }
  if (round_sizes.empty()) round_sizes.push_back(0);
  const long rounds = static_cast<long>(round_sizes.size());
  stats.rounds = rounds;

  if (rounds == 1) {
    // Resident matrix: already programmed, one parallel compute wave.
    stats.seconds = compute;
    stats.compute_busy_seconds = compute;
  } else {
    // Writer and clusters as two resources; with double buffering the
    // writer prepares round k+1 while round k computes (two block buffers,
    // so writing round k+1 also waits for round k-1's compute).
    std::vector<double> write_done(round_sizes.size(), 0.0);
    std::vector<double> compute_done(round_sizes.size(), 0.0);
    for (std::size_t k = 0; k < round_sizes.size(); ++k) {
      double write_start;
      if (k == 0) {
        write_start = 0.0;
      } else if (config.overlap_write_compute) {
        write_start = std::max(write_done[k - 1],
                               k >= 2 ? compute_done[k - 2] : 0.0);
      } else {
        write_start = compute_done[k - 1];
      }
      write_done[k] = write_start + write;
      const double compute_start =
          std::max(write_done[k], k > 0 ? compute_done[k - 1] : 0.0);
      compute_done[k] = compute_start + compute;
      stats.write_busy_seconds += write;
      stats.compute_busy_seconds += compute;
    }
    stats.seconds = compute_done.back();
  }

  stats.cluster_utilization =
      capacity > 0 && rounds > 0
          ? static_cast<double>(blocks) /
                (static_cast<double>(capacity) * static_cast<double>(rounds))
          : 0.0;

  // Stream traffic per pass. Re-programmed (multi-round) matrices move their
  // encoded cells every pass; resident ones move only vector segments.
  const core::Format& fmt = config.format;
  const long long side = 1LL << rf.format().b;
  if (rounds > 1) {
    const long long grid_dim =
        std::max(static_cast<long long>(rf.block_index().block_rows()),
                 (rf.quantized().cols() + side - 1) / side);
    stats.matrix_stream_bits =
        static_cast<long long>(rf.stats().values) *
            core::storage_bits_per_value(fmt) +
        static_cast<long long>(blocks) *
            core::storage_bits_per_block(fmt, grid_dim);
  }
  stats.input_vector_bits = static_cast<long long>(blocks) * side *
                            (1LL + fmt.ev + fmt.fv);
  stats.output_vector_bits = static_cast<long long>(blocks) * side * 64LL;
  return stats;
}

ScheduleStats simulate_spmv_tiled(const AcceleratorConfig& config,
                                  const core::RefloatMatrix& rf,
                                  const core::TiledPlan& tiled) {
  ScheduleStats stats;
  const core::Format& fmt = config.format;
  const long long capacity = clusters(config);

  if (tiled.empty()) {
    // No partition: one idle tile, zero traffic.
    stats.seconds = static_cast<double>(cycles_per_block_mvm(fmt)) *
                    config.op_latency_ns * 1e-9;
    stats.compute_busy_seconds = stats.seconds;
    stats.tile_rounds.assign(1, 1);
    stats.tile_utilization.assign(1, 0.0);
    return stats;
  }

  const std::vector<std::size_t> blocks_per_tile = tiled.blocks_per_tile();
  const TiledSpmvTiming timing =
      tiled_spmm_time(config, blocks_per_tile, rf.quantized().rows(), 1);
  stats.seconds = timing.seconds;
  stats.rounds = timing.rounds;
  stats.tiles = timing.tiles;
  stats.broadcast_seconds = timing.broadcast_seconds;
  stats.reduction_seconds = timing.reduction_seconds;
  stats.ecc_seconds = timing.ecc_seconds;
  stats.tile_rounds = timing.tile_rounds;

  // Occupancy and per-tile utilization: a tile's available slots are
  // capacity * its own round count; overall utilization keeps the untiled
  // formula at one tile.
  std::size_t total_blocks = 0;
  long long total_rounds = 0;
  stats.tile_utilization.assign(blocks_per_tile.size(), 0.0);
  for (std::size_t t = 0; t < blocks_per_tile.size(); ++t) {
    const long r = timing.tile_rounds[t];
    total_blocks += blocks_per_tile[t];
    total_rounds += r;
    if (capacity > 0 && r > 0) {
      stats.tile_utilization[t] =
          static_cast<double>(blocks_per_tile[t]) /
          (static_cast<double>(capacity) * static_cast<double>(r));
    }
    if (r > 1) {
      stats.write_busy_seconds +=
          static_cast<double>(r) * timing.write_seconds;
    }
    stats.compute_busy_seconds +=
        static_cast<double>(r) * timing.compute_seconds;
  }
  stats.cluster_utilization =
      capacity > 0 && total_rounds > 0
          ? static_cast<double>(total_blocks) /
                (static_cast<double>(capacity) *
                 static_cast<double>(total_rounds))
          : 0.0;

  // Stream traffic. Each non-resident tile re-streams its shard's encoded
  // cells every pass; vector-segment traffic keeps the per-block formula so
  // one tile reproduces the untiled numbers exactly.
  const long long rows = rf.quantized().rows();
  const long long cols = rf.quantized().cols();
  const long long side = 1LL << rf.format().b;
  const long long grid_dim =
      std::max(static_cast<long long>(rf.block_index().block_rows()),
               (cols + side - 1) / side);
  for (std::size_t t = 0; t < blocks_per_tile.size(); ++t) {
    if (timing.tile_rounds[t] <= 1) continue;
    const core::TileShard& shard = tiled.shard(static_cast<int>(t));
    stats.matrix_stream_bits +=
        static_cast<long long>(shard.entries()) *
            core::storage_bits_per_value(fmt) +
        static_cast<long long>(shard.blocks()) *
            core::storage_bits_per_block(fmt, grid_dim);
  }
  stats.input_vector_bits = static_cast<long long>(total_blocks) * side *
                            (1LL + fmt.ev + fmt.fv);
  stats.output_vector_bits = static_cast<long long>(total_blocks) * side * 64LL;

  // Link traffic over the (tiles - 1)-link tree: the broadcast pushes the
  // quantized input vector across every link, the reduction pulls one
  // partial output vector per link. Zero at one tile.
  const long long links = static_cast<long long>(stats.tiles) - 1;
  if (links > 0) {
    stats.broadcast_bits = links * cols * (1LL + fmt.ev + fmt.fv);
    stats.reduction_bits = links * rows * 64LL;
  }
  return stats;
}

}  // namespace refloat::arch

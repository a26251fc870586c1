// Event-timeline simulation of one SpMV pass: blocks are assigned to
// clusters round by round, with the writer double-buffered against compute
// when the config allows. The closed form in arch/timing.h is this
// timeline's exact fixed point (bench_schedule cross-validates); the
// timeline additionally yields the observables the closed form cannot —
// utilization and stream traffic.
#pragma once

#include <vector>

#include "src/arch/config.h"
#include "src/core/refloat_matrix.h"
#include "src/core/tiled_plan.h"

namespace refloat::arch {

struct ScheduleStats {
  double seconds = 0.0;
  long rounds = 1;
  double cluster_utilization = 0.0;   // occupied cluster-rounds / available
  long long matrix_stream_bits = 0;   // cell data re-streamed per pass
  long long input_vector_bits = 0;    // quantized IV segments in
  long long output_vector_bits = 0;   // partial OV segments out
  double write_busy_seconds = 0.0;    // writer occupancy over the pass
  double compute_busy_seconds = 0.0;  // cluster occupancy over the pass

  // Tiled-pass observables (simulate_spmv_tiled; defaults describe the
  // untiled pass so existing consumers read unchanged numbers).
  int tiles = 1;
  double broadcast_seconds = 0.0;     // input fan-out over the tile tree
  double reduction_seconds = 0.0;     // partial-output tree reduction
  long long broadcast_bits = 0;       // bits crossing the tree downward
  long long reduction_bits = 0;       // bits crossing the tree upward
  double ecc_seconds = 0.0;           // per-(tile, round) ECC charge
  std::vector<long> tile_rounds;      // reprogram rounds per tile
  std::vector<double> tile_utilization;  // per-tile occupied/available
};

// One pass over rf's indexed blocks; the grid and the entry count (every
// converted nonzero, rf.stats().values) come from rf.
ScheduleStats simulate_spmv(const AcceleratorConfig& config,
                            const core::RefloatMatrix& rf);

// Tiled counterpart over a partitioned matrix (`tiled` a partition of rf):
// the shared-writer /
// per-tile-double-buffered pipeline of arch::tiled_spmm_time plus the
// observables — per-tile utilization and rounds, tree link traffic, ECC
// charge. With one tile and ECC off, seconds/rounds/utilization/traffic all
// equal simulate_spmv on the same blocks.
ScheduleStats simulate_spmv_tiled(const AcceleratorConfig& config,
                                  const core::RefloatMatrix& rf,
                                  const core::TiledPlan& tiled);

}  // namespace refloat::arch

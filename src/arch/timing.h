// Closed-form accelerator timing. One SpMV pass:
//   * all clusters compute a round of blocks in parallel
//     (cycles_per_block_mvm * op_latency);
//   * a non-resident matrix (more blocks than clusters) is reprogrammed
//     round by round (2^b rows * row_write_ns), double-buffered against
//     compute when overlap_write_compute is set.
// A solver iteration adds the digital vector ops of its profile.
//
// Batching (solve AX = B): spmm_time prices a k-RHS batch streamed through
// ONE programmed image per round — the reprogram cost is charged once per
// batch, not once per right-hand side, so per-RHS time falls monotonically
// with k (the amortization bench_batch tabulates).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/arch/config.h"

namespace refloat::arch {

struct SpmvTiming {
  double seconds = 0.0;  // whole pass: all rounds, all batch_k vectors
  long rounds = 1;
  double compute_seconds = 0.0;  // per-round compute time, ONE vector
  double write_seconds = 0.0;    // per-round reprogram time
  long batch_k = 1;              // right-hand sides sharing each round
  double per_rhs_seconds = 0.0;  // seconds / batch_k
};

SpmvTiming spmv_time(const AcceleratorConfig& config,
                     std::size_t nonzero_blocks);

// One pass of a k-RHS batch: every reprogram round writes its blocks once,
// then streams all k vectors through the programmed image before moving to
// the next round. spmm_time(config, blocks, 1) == spmv_time(config, blocks).
SpmvTiming spmm_time(const AcceleratorConfig& config,
                     std::size_t nonzero_blocks, long batch_k);

// The bit-true pass: the same streaming schedule as spmm_time, but every
// reprogram round pays write-verify programming — row_write_ns scaled by
// config.write_verify_passes — before its k compute sweeps. With
// write_verify_passes == 1 this IS spmm_time; with realistic multi-pass
// programming the rounds turn write-bound and the per-RHS amortization of
// batching grows accordingly (the k-RHS bit-true rows in bench_batch /
// EXPERIMENTS.md).
SpmvTiming bit_true_spmm_time(const AcceleratorConfig& config,
                              std::size_t nonzero_blocks, long batch_k);

// --- Tiled pass timing ----------------------------------------------------
// One SpMV/SpMM pass over blocks_per_tile.size() tiles, each holding its
// shard of the plan and owning `clusters(config)` of capacity. The single
// host programming stream is double-buffered against compute across tiles
// AND rounds (write tile i+1 / round r+1 while tile i / round r computes);
// tiles compute concurrently; the pass ends after the last tile's compute
// plus the tree reduction. Broadcast/reduction hops are priced from
// link_latency_ns / link_gbit_per_s; per-tile ECC adds ecc_round_ns to
// every (tile, round). With one tile and ECC off this is EXACTLY the
// monolithic closed form (it delegates to spmm_time).
struct TiledSpmvTiming {
  double seconds = 0.0;           // whole pass incl. broadcast + reduction
  int tiles = 1;
  long batch_k = 1;
  long rounds = 1;                // critical-path (max per-tile) rounds
  double engine_seconds = 0.0;    // write/compute pipeline span
  double broadcast_seconds = 0.0; // input fan-out over the tree
  double reduction_seconds = 0.0; // partial-output tree reduction
  double ecc_seconds = 0.0;       // total ECC check/correct charge
  double per_rhs_seconds = 0.0;
  double compute_seconds = 0.0;   // per-round compute, ONE vector (no ECC)
  double write_seconds = 0.0;     // per-round reprogram time
  std::vector<long> tile_rounds;
  std::vector<double> tile_busy_seconds;  // per-tile write+compute occupancy
};

TiledSpmvTiming tiled_spmm_time(const AcceleratorConfig& config,
                                std::span<const std::size_t> blocks_per_tile,
                                long long n, long batch_k);

// Operation counts of one solver iteration.
struct SolverProfile {
  int spmvs_per_iteration = 1;
  int vector_ops_per_iteration = 5;  // dots + axpys, n elements each
  int kernels_per_iteration = 6;     // GPU launch count (gpu_model)

  // In a k-RHS lockstep batch, SpMV passes merge into SpMM passes (one per
  // apply point) while the digital vector ops stay per column — the two
  // scaling behaviours accelerator_batched_solve_time prices.
  [[nodiscard]] long long vector_ops(long iterations, long batch_k) const {
    return static_cast<long long>(iterations) * vector_ops_per_iteration *
           batch_k;
  }
};

SolverProfile cg_profile();        // 1 SpMV, 2 dots + 3 axpys
SolverProfile bicgstab_profile();  // 2 SpMVs, 4 dots + 6 axpys

struct SolveTime {
  double total_seconds = 0.0;
  double spmv_seconds = 0.0;
  double vector_seconds = 0.0;
  double program_seconds = 0.0;  // one-time initial programming
  long batch_k = 1;              // right-hand sides the totals cover
  double per_rhs_seconds = 0.0;  // total_seconds / batch_k
};

// Modeled accelerator time for `iterations` solver iterations on a matrix
// with `nonzero_blocks` blocks and dimension n.
SolveTime accelerator_solve_time(const AcceleratorConfig& config,
                                 std::size_t nonzero_blocks, long long n,
                                 long iterations,
                                 const SolverProfile& profile);

// Modeled time for a lockstep batch of `batch_k` right-hand sides running
// `iterations` iterations each: every solver apply point is one SpMM pass
// (reprogram charged once per batch round), vector ops scale with batch_k.
SolveTime accelerator_batched_solve_time(const AcceleratorConfig& config,
                                         std::size_t nonzero_blocks,
                                         long long n, long iterations,
                                         const SolverProfile& profile,
                                         long batch_k);

// The bit-true analog: SpMM passes priced by bit_true_spmm_time (write-
// verify programming once per batch round), vector ops still per column.
// This is the write-bound regime where batched serving earns its keep.
SolveTime bit_true_batched_solve_time(const AcceleratorConfig& config,
                                      std::size_t nonzero_blocks, long long n,
                                      long iterations,
                                      const SolverProfile& profile,
                                      long batch_k);

}  // namespace refloat::arch

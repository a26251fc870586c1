// Whole-matrix SpMV over the bit-true datapath: one ProcessingEngine per
// indexed ReFloat block (densified band by band from the matrix's packed
// operand and block index, which the image does not copy), partial outputs
// accumulated digitally — the hardware-exact counterpart of the value
// backend's sweep. Callers reach it through hw::BitTrueBackend.
//
// apply_multi() shards by block-row over util::ThreadPool::global()
// ($REFLOAT_THREADS): block-rows own disjoint output rows, every shard
// carries its own EngineScratch and EngineStats (summed in block-row order
// afterwards), and noise draws come from one counter-based stream per
// block-row — so the result is bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/refloat_matrix.h"
#include "src/core/tiled_plan.h"
#include "src/hw/engine.h"

namespace refloat::hw {

class HwSpmv {
 public:
  // Programs one engine per block of rf.block_index(), in index order.
  // With `tiled` null or empty the matrix is one tile: one fault seed, one
  // ECC budget (config.ecc.correct_cells). Otherwise each shard of `tiled` (a
  // partition of rf; borrowed for the constructor only) is programmed as
  // its own tile with its own stuck-at fault population — tile 0 keeps
  // config.faults.seed verbatim (so one tile reproduces the monolithic
  // build bit-for-bit), tile t > 0 derives a per-tile seed — and its own
  // ECC budget of config.ecc.correct_cells (total correction capacity
  // scales with tile count; the reliability lever bench_tiles ablates).
  // The compute path is the same either way: engines stay in block-index
  // order and apply_multi() shards by block-row.
  HwSpmv(const core::RefloatMatrix& rf, ClusterConfig config,
         const core::TiledPlan* tiled = nullptr);

  // Y = A X for k row-major interleaved vectors (x.size() == k * cols, slot
  // i*k + j) through the crossbar engines; each engine gathers its column
  // segment out of the batch and scatters its partial rows back. The programming pass — fault populations, ECC
  // scoreboards, plane bit-slicing — happened once at construction and is
  // shared by every column, and each engine is visited once per batch and
  // applied to all k columns (its plane bits stay hot). Column j draws its
  // per-block-row noise streams from noise_bases[j] alone, so it is
  // bit-identical to the same column swept with k = 1; when no noise is
  // configured the span may be empty.
  void apply_multi(std::span<const double> x, std::size_t k,
                   std::span<double> y,
                   std::span<const std::uint64_t> noise_bases);

  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t engines() const { return engines_.size(); }
  // True when config.noise.sigma > 0 (apply_multi reads noise_bases).
  [[nodiscard]] bool noisy() const { return noisy_; }
  // Heap bytes the programmed engines pin (plane bit-slices of both
  // polarity clusters) — what a residency cache should budget for a
  // resident bit-true image on top of RefloatMatrix::resident_bytes.
  [[nodiscard]] std::size_t resident_bytes() const;

  // Programming-time fault outcome per tile (one entry for the monolithic
  // build).
  [[nodiscard]] int tile_count() const {
    return static_cast<int>(tile_faulty_cells_.size());
  }
  [[nodiscard]] long long tile_faulty_cells(int t) const {
    return tile_faulty_cells_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] long long tile_corrected_cells(int t) const {
    return tile_corrected_cells_[static_cast<std::size_t>(t)];
  }

 private:
  // Programs the blocks of grid block-rows [brow_begin, brow_end) as one
  // tile and records its fault/correction counts.
  void program_tile(const core::RefloatMatrix& rf, ClusterConfig config,
                    std::size_t brow_begin, std::size_t brow_end);
  struct BlockEngine {
    sparse::Index row0 = 0;
    sparse::Index col0 = 0;
    ProcessingEngine engine;
  };

  sparse::Index rows_ = 0;
  sparse::Index cols_ = 0;
  int side_ = 0;
  bool noisy_ = false;
  std::vector<BlockEngine> engines_;
  // engines_[row_begin_[i] .. row_begin_[i+1]) is grid block-row i — the
  // threading shard, copied from the block index's block_ptr (size = grid
  // block-row count + 1; empty block-rows are empty ranges).
  std::vector<std::size_t> row_begin_;
  std::vector<long long> tile_faulty_cells_;
  std::vector<long long> tile_corrected_cells_;
  EngineStats stats_;
  std::vector<EngineStats> row_stats_;  // apply_multi's per block-row stats
};

}  // namespace refloat::hw

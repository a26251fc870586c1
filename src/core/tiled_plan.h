// TiledPlan: a RefloatMatrix sharded across N modeled ReRAM tiles.
//
// A tile shard is a contiguous range of grid block-rows (the partitioning
// atom — block-rows own disjoint output rows, which is what keeps tiled
// execution bit-identical to untiled). Blocks are ordered by (block-row,
// block-col) in both the block index and any SpmvPlan built from it, so a
// contiguous block-row range is also a contiguous range of blocks and of
// entries. The partition reads only the matrix's block index and its CSR
// row_ptr (the entries before block-row br are row_ptr[br << b]) and holds
// no pointer into either: a shard is a set of offsets that addresses the
// rows of rf.quantized() (value and noisy sweeps) and the blocks and
// entries of SpmvPlan::build(rf) (bit-true programming, the schedule model)
// alike.
//
// Partitioning is capacity-aware greedy (pack block-rows up to the smaller
// of the per-tile crossbar budget and the balanced target, leaving one
// block-row for every still-empty requested tile) followed by a
// balance-aware refinement pass (shift shard boundaries by one block-row
// while that strictly lowers the heavier neighbour's nnz). A capacity
// budget smaller than the balanced share forces extra shards beyond the
// requested tile count; a single block-row heavier than the budget becomes
// a one-block-row shard that overflows it (the atom cannot be split —
// stats().capacity_overflows counts these).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/core/refloat_matrix.h"
#include "src/core/spmv_plan.h"

namespace refloat::core {

// One tile's shard: [brow_begin, brow_end) grid block-rows, which by the
// ordering contract pin down the block and entry ranges too.
struct TileShard {
  std::size_t brow_begin = 0;
  std::size_t brow_end = 0;
  std::size_t block_begin = 0;
  std::size_t block_end = 0;
  std::size_t entry_begin = 0;
  std::size_t entry_end = 0;

  [[nodiscard]] std::size_t block_rows() const { return brow_end - brow_begin; }
  [[nodiscard]] std::size_t blocks() const { return block_end - block_begin; }
  [[nodiscard]] std::size_t entries() const { return entry_end - entry_begin; }
};

struct TilePartitionOptions {
  int tiles = 1;                    // requested tile count (>= 1)
  std::size_t capacity_blocks = 0;  // per-tile crossbar budget; 0 = unbounded
  bool refine = true;               // balance-aware boundary refinement
};

struct TilePartitionStats {
  int tiles = 0;            // shards actually produced
  int requested_tiles = 0;  // opts.tiles
  std::size_t capacity_blocks = 0;
  int capacity_overflows = 0;  // single-block-row shards above the budget
  int refinement_moves = 0;    // boundary shifts the refinement pass took
  std::size_t max_blocks = 0;
  std::size_t min_blocks = 0;
  std::size_t max_entries = 0;
  std::size_t min_entries = 0;
  double mean_blocks = 0.0;
  double mean_entries = 0.0;
  // max_entries / mean_entries over all shards (1.0 for an empty plan) —
  // the load-balance figure bench_tiles reports.
  double balance = 1.0;
};

// The shard index of one matrix. It borrows nothing, so it may be built,
// copied or moved independently of the matrix it partitions.
class TiledPlan {
 public:
  TiledPlan() = default;

  // Partitions rf's grid block-rows into shards per `opts` (see file
  // comment). A scalar format (b == 0) has no block-rows: every shard is
  // empty.
  [[nodiscard]] static TiledPlan partition(const RefloatMatrix& rf,
                                           const TilePartitionOptions& opts);

  // True for a default-constructed (unpartitioned) TiledPlan.
  [[nodiscard]] bool empty() const { return shards_.empty(); }
  [[nodiscard]] int tile_count() const {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] std::span<const TileShard> shards() const { return shards_; }
  [[nodiscard]] const TileShard& shard(int t) const {
    return shards_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] const TilePartitionStats& stats() const { return stats_; }

  // Per-tile block counts, the arch/ timing model's input.
  [[nodiscard]] std::vector<std::size_t> blocks_per_tile() const;

  // Bytes of the shard index itself (shards are offsets, so this is all a
  // TiledPlan adds to a resident — serving-cache accounting).
  [[nodiscard]] std::size_t index_bytes() const {
    return shards_.size() * sizeof(TileShard);
  }

  // Shards are contiguous, cover every grid block-row of `plan` exactly
  // once, and their block/entry ranges agree with its block_ptr/entry_ptr —
  // for SpmvPlan::build of the partitioned matrix.
  [[nodiscard]] bool valid(const SpmvPlan& plan) const;

 private:
  std::vector<TileShard> shards_;
  TilePartitionStats stats_;
};

// $REFLOAT_TILES when set to an integer in [1, 4096] (cached after first
// read; invalid values warn and fall back), else 1. The default tile count
// the solver operators partition with.
int default_tile_count();

}  // namespace refloat::core

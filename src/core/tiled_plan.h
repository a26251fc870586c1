// TiledPlan: a RefloatMatrix sharded across N modeled ReRAM tiles.
//
// A tile shard is a contiguous range of grid block-rows (the partitioning
// atom — block-rows own disjoint output rows, which is what keeps tiled
// execution bit-identical to untiled). Blocks are ordered by (block-row,
// block-col) in the block index, so a contiguous block-row range is also a
// contiguous range of blocks and of entries. The partition reads only the
// matrix's block index and its packed operand's row_ptr (the entries before
// block-row br are row_ptr[br << b]) and holds no pointer into either: a
// shard is a set of offsets that addresses the rows of rf.quantized()
// (value and noisy sweeps), the blocks of rf.block_index() (bit-true
// programming) and the per-tile block and entry counts the schedule model
// prices.
//
// Partitioning is greedy (pack block-rows up to the balanced share of the
// blocks still to place, leaving one block-row for every still-empty tile)
// followed by a balance refinement pass (shift shard boundaries by one
// block-row while that strictly lowers the heavier neighbour's nnz).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/core/refloat_matrix.h"

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

// The shard index of one matrix. It borrows nothing, so it may be built,
// copied or moved independently of the matrix it partitions.
class TiledPlan {
 public:
  TiledPlan() = default;

  // Partitions rf's grid block-rows into `tiles` shards (see file comment);
  // a tile count above the block-row count pads with empty trailing shards.
  // A matrix with no block-rows (a scalar format, b == 0) gets an empty()
  // plan, which every consumer runs untiled.
  [[nodiscard]] static TiledPlan partition(const RefloatMatrix& rf,
                                           int tiles);

  // True for a default-constructed TiledPlan and for the partition of a
  // matrix with no block-rows; either runs untiled.
  [[nodiscard]] bool empty() const { return shards_.empty(); }
  [[nodiscard]] int tile_count() const {
    return static_cast<int>(shards_.size());
  }
  [[nodiscard]] std::span<const TileShard> shards() const { return shards_; }
  [[nodiscard]] const TileShard& shard(int t) const {
    return shards_[static_cast<std::size_t>(t)];
  }
  // Load balance: the heaviest shard's entries over the mean shard's (1.0
  // for an empty plan) — the figure bench_tiles reports.
  [[nodiscard]] double balance() const;

  // Per-tile block counts, the arch/ timing model's input.
  [[nodiscard]] std::vector<std::size_t> blocks_per_tile() const;

  // Bytes of the shard index itself (shards are offsets, so this is all a
  // TiledPlan adds to a resident — serving-cache accounting).
  [[nodiscard]] std::size_t index_bytes() const {
    return shards_.size() * sizeof(TileShard);
  }

  // Shards are contiguous, cover every grid block-row of `rf` exactly once,
  // and their block/entry ranges agree with rf.block_index().block_ptr and
  // rf.quantized().row_ptr() — for the partitioned matrix.
  [[nodiscard]] bool valid(const RefloatMatrix& rf) const;

 private:
  std::vector<TileShard> shards_;
};

}  // namespace refloat::core

#include "src/core/tiled_plan.h"

#include <algorithm>

namespace refloat::core {

namespace {

// Block and entry offsets of grid block-row boundaries — O(1) via the
// block index and the packed operand's row_ptr (the entries before
// block-row br are row_ptr[br << b]). Needs at least one block-row.
struct Offsets {
  const std::vector<std::size_t>& block_ptr;
  std::span<const sparse::Index> row_ptr;
  int b;

  [[nodiscard]] std::size_t block(std::size_t br) const {
    return block_ptr[br];
  }
  [[nodiscard]] std::size_t entry(std::size_t br) const {
    const std::size_t row =
        std::min(br << b, row_ptr.size() - 1);  // the last band may be short
    return static_cast<std::size_t>(row_ptr[row]);
  }
  [[nodiscard]] std::size_t blocks(std::size_t a, std::size_t z) const {
    return block(z) - block(a);
  }
  [[nodiscard]] std::size_t entries(std::size_t a, std::size_t z) const {
    return entry(z) - entry(a);
  }
};

}  // namespace

TiledPlan TiledPlan::partition(const RefloatMatrix& rf, int tiles) {
  TiledPlan out;
  const RefloatMatrix::BlockIndex& index = rf.block_index();
  const std::size_t n_brows = index.block_rows();
  if (n_brows == 0) return out;
  const Offsets at{index.block_ptr, rf.quantized().row_ptr(), rf.format().b};
  const std::size_t requested = static_cast<std::size_t>(std::max(tiles, 1));
  const std::size_t total_blocks = index.size();

  // --- Greedy pass over block-row cut points. ---
  // Each shard packs block-rows up to the balanced target over the tiles
  // still to fill, always takes at least one block-row, and leaves one
  // block-row for every still-empty requested tile.
  std::vector<std::size_t> cuts{0};
  std::size_t br = 0;
  std::size_t consumed = 0;
  while (br < n_brows) {
    const std::size_t t = cuts.size() - 1;  // shard being built
    const std::size_t tiles_left = t + 1 < requested ? requested - t : 1;
    std::size_t target =
        (total_blocks - consumed + tiles_left - 1) / tiles_left;
    if (target == 0) target = 1;  // only empty block-rows remain
    const std::size_t must_leave = t + 1 < requested ? requested - t - 1 : 0;
    const std::size_t start = br;
    std::size_t tile_blocks = 0;
    while (br < n_brows) {
      if (br > start && n_brows - br <= must_leave) break;
      const std::size_t rb = at.blocks(br, br + 1);
      if (br > start && tile_blocks + rb > target) break;
      tile_blocks += rb;
      ++br;
    }
    consumed += tile_blocks;
    cuts.push_back(br);
  }
  // Fewer block-rows than requested tiles: trailing shards are empty views.
  while (cuts.size() < requested + 1) cuts.push_back(n_brows);

  // --- Balance refinement: shift one boundary block-row at a time while it
  // strictly lowers the heavier neighbour's entry load. Strict improvement
  // bounds the loop; the pass cap is a safety net.
  const int max_passes = 4 * static_cast<int>(cuts.size());
  for (int pass = 0; pass < max_passes; ++pass) {
    bool moved = false;
    for (std::size_t i = 1; i + 1 < cuts.size(); ++i) {
      const std::size_t lo = cuts[i - 1];
      const std::size_t hi = cuts[i + 1];
      const auto pair_max = [&](std::size_t cut) {
        return std::max(at.entries(lo, cut), at.entries(cut, hi));
      };
      const std::size_t cur = pair_max(cuts[i]);
      // Move the boundary left (last row of the left shard joins the
      // right shard) or right, whichever strictly reduces the pair max.
      if (cuts[i] - lo >= 2 && pair_max(cuts[i] - 1) < cur) {
        --cuts[i];
        moved = true;
      } else if (hi - cuts[i] >= 2 && pair_max(cuts[i] + 1) < cur) {
        ++cuts[i];
        moved = true;
      }
    }
    if (!moved) break;
  }

  out.shards_.reserve(cuts.size() - 1);
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    TileShard s;
    s.brow_begin = cuts[i];
    s.brow_end = cuts[i + 1];
    s.block_begin = at.block(s.brow_begin);
    s.block_end = at.block(s.brow_end);
    s.entry_begin = at.entry(s.brow_begin);
    s.entry_end = at.entry(s.brow_end);
    out.shards_.push_back(s);
  }
  return out;
}

double TiledPlan::balance() const {
  std::size_t max_entries = 0;
  std::size_t sum_entries = 0;
  for (const TileShard& s : shards_) {
    max_entries = std::max(max_entries, s.entries());
    sum_entries += s.entries();
  }
  if (sum_entries == 0) return 1.0;
  const double mean = static_cast<double>(sum_entries) /
                      static_cast<double>(shards_.size());
  return static_cast<double>(max_entries) / mean;
}

std::vector<std::size_t> TiledPlan::blocks_per_tile() const {
  std::vector<std::size_t> counts;
  counts.reserve(shards_.size());
  for (const TileShard& s : shards_) counts.push_back(s.blocks());
  return counts;
}

bool TiledPlan::valid(const RefloatMatrix& rf) const {
  const RefloatMatrix::BlockIndex& index = rf.block_index();
  if (shards_.empty() || index.block_rows() == 0) {
    return shards_.empty() && index.block_rows() == 0;
  }
  const Offsets at{index.block_ptr, rf.quantized().row_ptr(), rf.format().b};
  if (shards_.front().brow_begin != 0) return false;
  if (shards_.back().brow_end != index.block_rows()) return false;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const TileShard& s = shards_[i];
    if (s.brow_begin > s.brow_end) return false;
    if (i > 0 && shards_[i - 1].brow_end != s.brow_begin) return false;
    if (s.block_begin != at.block(s.brow_begin)) return false;
    if (s.block_end != at.block(s.brow_end)) return false;
    if (s.entry_begin != at.entry(s.brow_begin)) return false;
    if (s.entry_end != at.entry(s.brow_end)) return false;
  }
  return true;
}

}  // namespace refloat::core

#include "src/core/tiled_plan.h"

#include <algorithm>
#include <cstdlib>

#include "src/util/log.h"

namespace refloat::core {

namespace {

// Block and entry offsets of grid block-row boundaries — O(1) via the
// block index and the packed operand's row_ptr (the entries before
// block-row br are row_ptr[br << b]).
struct Offsets {
  const std::vector<std::size_t>& block_ptr;
  std::span<const sparse::Index> row_ptr;
  int b;

  [[nodiscard]] std::size_t block(std::size_t br) const {
    return block_ptr.empty() ? 0 : block_ptr[br];
  }
  [[nodiscard]] std::size_t entry(std::size_t br) const {
    if (block_ptr.empty()) return 0;
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

TiledPlan TiledPlan::partition(const RefloatMatrix& rf,
                               const TilePartitionOptions& opts) {
  TiledPlan out;
  const RefloatMatrix::BlockIndex& index = rf.block_index();
  const Offsets at{index.block_ptr, rf.quantized().row_ptr(), rf.format().b};
  const std::size_t n_brows = index.block_rows();
  const std::size_t requested =
      static_cast<std::size_t>(std::max(opts.tiles, 1));
  const std::size_t cap = opts.capacity_blocks;
  const std::size_t total_blocks = index.size();

  // --- Greedy capacity-aware pass over block-row cut points. ---
  // Each shard packs block-rows up to min(balanced target over the tiles
  // still to fill, capacity), always takes at least one block-row, and
  // leaves one block-row for every still-empty requested tile.
  std::vector<std::size_t> cuts{0};
  std::size_t br = 0;
  std::size_t consumed = 0;
  while (br < n_brows) {
    const std::size_t t = cuts.size() - 1;  // shard being built
    const std::size_t tiles_left = t + 1 < requested ? requested - t : 1;
    std::size_t target =
        (total_blocks - consumed + tiles_left - 1) / tiles_left;
    if (cap > 0) target = std::min(target, cap);
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

  // --- Balance-aware refinement: shift one boundary block-row at a time
  // while it strictly lowers the heavier neighbour's entry load and keeps
  // both neighbours inside the capacity budget. Strict improvement bounds
  // the loop; the pass cap is a safety net.
  int moves = 0;
  if (opts.refine && cuts.size() > 2) {
    const int max_passes = 4 * static_cast<int>(cuts.size());
    for (int pass = 0; pass < max_passes; ++pass) {
      bool moved = false;
      for (std::size_t i = 1; i + 1 < cuts.size(); ++i) {
        const std::size_t lo = cuts[i - 1];
        const std::size_t hi = cuts[i + 1];
        const auto load = [&](std::size_t a, std::size_t z) {
          return at.entries(a, z);
        };
        const auto fits = [&](std::size_t a, std::size_t z) {
          return cap == 0 || at.blocks(a, z) <= cap || z - a <= 1;
        };
        const std::size_t cur =
            std::max(load(lo, cuts[i]), load(cuts[i], hi));
        // Move the boundary left (last row of the left shard joins the
        // right shard) or right, whichever strictly reduces the pair max.
        if (cuts[i] - lo >= 2 && fits(cuts[i] - 1, hi) &&
            std::max(load(lo, cuts[i] - 1), load(cuts[i] - 1, hi)) < cur) {
          --cuts[i];
          ++moves;
          moved = true;
        } else if (hi - cuts[i] >= 2 && fits(lo, cuts[i] + 1) &&
                   std::max(load(lo, cuts[i] + 1), load(cuts[i] + 1, hi)) <
                       cur) {
          ++cuts[i];
          ++moves;
          moved = true;
        }
      }
      if (!moved) break;
    }
  }

  // --- Materialize shards and partition stats. ---
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

  TilePartitionStats& st = out.stats_;
  st.tiles = static_cast<int>(out.shards_.size());
  st.requested_tiles = static_cast<int>(requested);
  st.capacity_blocks = cap;
  st.refinement_moves = moves;
  std::size_t sum_blocks = 0;
  std::size_t sum_entries = 0;
  bool first = true;
  for (const TileShard& s : out.shards_) {
    sum_blocks += s.blocks();
    sum_entries += s.entries();
    if (cap > 0 && s.blocks() > cap) ++st.capacity_overflows;
    if (first) {
      st.max_blocks = st.min_blocks = s.blocks();
      st.max_entries = st.min_entries = s.entries();
      first = false;
    } else {
      st.max_blocks = std::max(st.max_blocks, s.blocks());
      st.min_blocks = std::min(st.min_blocks, s.blocks());
      st.max_entries = std::max(st.max_entries, s.entries());
      st.min_entries = std::min(st.min_entries, s.entries());
    }
  }
  if (st.tiles > 0) {
    st.mean_blocks =
        static_cast<double>(sum_blocks) / static_cast<double>(st.tiles);
    st.mean_entries =
        static_cast<double>(sum_entries) / static_cast<double>(st.tiles);
  }
  st.balance = st.mean_entries > 0.0
                   ? static_cast<double>(st.max_entries) / st.mean_entries
                   : 1.0;
  return out;
}

std::vector<std::size_t> TiledPlan::blocks_per_tile() const {
  std::vector<std::size_t> counts;
  counts.reserve(shards_.size());
  for (const TileShard& s : shards_) counts.push_back(s.blocks());
  return counts;
}

bool TiledPlan::valid(const RefloatMatrix& rf) const {
  const RefloatMatrix::BlockIndex& index = rf.block_index();
  if (shards_.empty()) return index.block_rows() == 0;
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

int default_tile_count() {
  static const int cached = [] {
    const char* env = std::getenv("REFLOAT_TILES");
    if (env == nullptr || *env == '\0') return 1;
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || v < 1 || v > 4096) {
      RF_LOG_WARN("REFLOAT_TILES=%s is not a tile count in [1, 4096]; "
                  "running untiled",
                  env);
      return 1;
    }
    return static_cast<int>(v);
  }();
  return cached;
}

}  // namespace refloat::core

#include "src/hw/hw_spmv.h"

#include <algorithm>
#include <functional>

#include "src/core/band_scatter.h"
#include "src/util/thread_pool.h"

namespace refloat::hw {

void HwSpmv::program_tile(const core::RefloatMatrix& rf, ClusterConfig config,
                          std::size_t brow_begin, std::size_t brow_end) {
  // Program one engine per indexed block, band by band: each band of the
  // packed operand is grouped by block column, and every block of the
  // band's index range is densified from its run — or left all zero when
  // its entries all flushed to zero (it has no run). The whole tile draws
  // on one correction budget, consumed in programming order.
  const core::RefloatMatrix::BlockIndex& index = rf.block_index();
  const sparse::PackedCsr& q = rf.quantized();
  const int b = rf.format().b;
  long long budget = config.ecc.correct_cells;
  long long faulty = 0;
  long long corrected = 0;
  std::vector<std::vector<double>> dense(
      static_cast<std::size_t>(side_),
      std::vector<double>(static_cast<std::size_t>(side_), 0.0));
  core::BandScatter band(b, cols_);
  for (std::size_t br = brow_begin; br < brow_end; ++br) {
    const auto r0 = static_cast<sparse::Index>(br) << b;
    const sparse::Index r1 = std::min<sparse::Index>(r0 + side_, rows_);
    q.visit([&](auto rows) { band.scatter(rows, r0, r1); });
    const std::span<const sparse::Index> touched = band.block_cols();
    std::size_t run = 0;
    for (std::size_t j = index.block_ptr[br]; j < index.block_ptr[br + 1];
         ++j) {
      const sparse::Index bc = index.block_col[j];
      for (auto& row : dense) std::fill(row.begin(), row.end(), 0.0);
      if (run < touched.size() && touched[run] == bc) {
        const std::span<const double> values = band.run_values(run);
        const std::span<const core::BandScatter::Slot> slots =
            band.run_slots(run);
        for (std::size_t p = 0; p < values.size(); ++p) {
          dense[static_cast<std::size_t>(slots[p].r)]
               [static_cast<std::size_t>(slots[p].c)] = values[p];
        }
        ++run;
      }
      engines_.push_back({r0, bc << b,
                          ProcessingEngine(dense, index.base[j], rf.format(),
                                           config, rf.policy(), &budget)});
      faulty += engines_.back().engine.faulty_cells();
      corrected += engines_.back().engine.ecc_corrected();
    }
  }
  tile_faulty_cells_.push_back(faulty);
  tile_corrected_cells_.push_back(corrected);
  stats_.faulty_cells += faulty;
  stats_.ecc_corrected += corrected;
}

HwSpmv::HwSpmv(const core::RefloatMatrix& rf, ClusterConfig config,
               const core::TiledPlan* tiled)
    : rows_(rf.quantized().rows()),
      cols_(rf.quantized().cols()),
      side_(1 << rf.format().b),
      noisy_(config.noise.sigma > 0.0),
      row_begin_(rf.block_index().block_ptr) {
  engines_.reserve(rf.nonzero_blocks());
  if (tiled == nullptr || tiled->empty()) {
    program_tile(rf, config, 0, rf.block_index().block_rows());
  } else {
    const std::uint64_t seed = config.faults.seed;
    for (int t = 0; t < tiled->tile_count(); ++t) {
      const core::TileShard& shard = tiled->shard(t);
      ClusterConfig tile_config = config;
      // Tile 0 keeps the caller's fault seed verbatim — one tile is the
      // monolithic build, cell for cell. Later tiles are physically
      // distinct arrays, so they carry independently derived defect
      // populations.
      if (t > 0) {
        tile_config.faults.seed =
            util::stream_seed(seed, static_cast<std::uint64_t>(t), 0x713e5ULL);
      }
      program_tile(rf, tile_config, shard.brow_begin, shard.brow_end);
    }
  }
}

void HwSpmv::apply_multi(std::span<const double> x, std::size_t k,
                         std::span<double> y,
                         std::span<const std::uint64_t> noise_bases) {
  if (k == 0) return;
  std::fill(y.begin(), y.end(), 0.0);
  const std::size_t n_block_rows =
      row_begin_.empty() ? 0 : row_begin_.size() - 1;
  // Per block-row stats, reset every apply; the buffer lives with the
  // image so a warm apply allocates nothing.
  row_stats_.assign(n_block_rows, EngineStats{});
  const auto block_row = [&](std::size_t br) {
    // Per worker thread, not per shard: every buffer is fully overwritten
    // before use, so reuse across shards/applies is safe and keeps the hot
    // loop allocation-free. Only the Rngs must be per-shard (determinism).
    thread_local EngineScratch scratch;
    thread_local std::vector<double> x_seg;
    thread_local std::vector<double> y_seg;
    thread_local std::vector<util::Rng> rngs;
    x_seg.resize(static_cast<std::size_t>(side_));
    y_seg.resize(static_cast<std::size_t>(side_));
    // Column j's per-block-row stream is keyed off its own noise base —
    // independent streams, so interleaving columns under one engine visit
    // leaves each column's draw sequence exactly as its k = 1 sweep.
    rngs.clear();
    rngs.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      const std::uint64_t base =
          noisy_ && j < noise_bases.size() ? noise_bases[j] : 0;
      rngs.emplace_back(util::stream_seed(base, br, 0));
    }
    for (std::size_t i = row_begin_[br]; i < row_begin_[br + 1]; ++i) {
      const BlockEngine& be = engines_[i];
      const sparse::Index col_end =
          std::min<sparse::Index>(be.col0 + side_, cols_);
      const sparse::Index row_end =
          std::min<sparse::Index>(be.row0 + side_, rows_);
      // Engine-major, column-minor: the engine's plane bit-slices stay hot
      // while all k columns stream through — the software mirror of one
      // programmed crossbar serving the whole batch.
      for (std::size_t j = 0; j < k; ++j) {
        // Gather column j's (possibly edge-truncated) input segment out of
        // the interleaved batch, zero-padded to the crossbar side.
        std::fill(x_seg.begin(), x_seg.end(), 0.0);
        for (sparse::Index c = be.col0; c < col_end; ++c) {
          x_seg[static_cast<std::size_t>(c - be.col0)] =
              x[static_cast<std::size_t>(c) * k + j];
        }
        std::fill(y_seg.begin(), y_seg.end(), 0.0);
        be.engine.apply(x_seg, y_seg, &row_stats_[br], rngs[j], scratch);
        for (sparse::Index r = be.row0; r < row_end; ++r) {
          y[static_cast<std::size_t>(r) * k + j] +=
              y_seg[static_cast<std::size_t>(r - be.row0)];
        }
      }
    }
  };
  // By reference: a std::function holding the lambda itself would allocate
  // on every apply.
  util::ThreadPool::global().parallel_for(n_block_rows, std::ref(block_row));
  for (const EngineStats& s : row_stats_) stats_ += s;
}

std::size_t HwSpmv::resident_bytes() const {
  std::size_t bytes = row_begin_.size() * sizeof(std::size_t);
  for (const BlockEngine& be : engines_) {
    bytes += sizeof(BlockEngine) + be.engine.memory_bytes();
  }
  return bytes;
}

}  // namespace refloat::hw

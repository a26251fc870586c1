#include "src/core/sweep_backend.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/core/simd.h"
#include "src/sparse/vector_ops.h"
#include "src/util/fault_injector.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace refloat::core {

AbftChecksum make_abft_checksum(const RefloatMatrix& rf,
                                double rel_tolerance) {
  AbftChecksum abft;
  abft.rel_tolerance = rel_tolerance;
  const sparse::PackedCsr& a = rf.quantized();
  abft.colsum.assign(static_cast<std::size_t>(a.cols()), 0.0);
  const auto nnz = static_cast<std::size_t>(a.nnz());
  a.visit([&](auto q) {
    for (std::size_t e = 0; e < nnz; ++e) {
      abft.colsum[q.col[e]] += static_cast<double>(q.val[e]);
    }
  });
  return abft;
}

const char* backend_kind_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kValue:
      return "value";
    case BackendKind::kNoisy:
      return "noisy";
    case BackendKind::kBitTrue:
      return "bittrue";
  }
  return "value";
}

bool parse_backend_kind(std::string_view name, BackendKind* out) {
  if (name == "value") {
    *out = BackendKind::kValue;
  } else if (name == "noisy") {
    *out = BackendKind::kNoisy;
  } else if (name == "bittrue") {
    *out = BackendKind::kBitTrue;
  } else {
    return false;
  }
  return true;
}

void SweepBackend::finish_sweep(std::span<const double> x_check,
                                std::span<double> y, std::size_t k,
                                SweepVerdict* verdict) const {
  const std::size_t n_cols = cols();
  const std::size_t n_rows = rows();
  // Injection first, verification second: the checked mode must see (and
  // catch) what the injector broke. Column-granular corruption on this
  // serial path keeps the fault trace independent of thread/tile count.
  util::FaultInjector& injector = util::FaultInjector::global();
  if (injector.armed(util::FaultSite::kSweep)) {
    for (std::size_t j = 0; j < k; ++j) {
      injector.maybe_corrupt(util::FaultSite::kSweep,
                             y.subspan(j * n_rows, n_rows));
    }
  }
  if (verdict == nullptr) return;
  verdict->reset();
  if (abft_ == nullptr) return;
  verdict->checked = true;
  verdict->tolerance = abft_->rel_tolerance;
  assert(abft_->colsum.size() == n_cols && x_check.size() >= n_cols * k);
  for (std::size_t j = 0; j < k; ++j) {
    const double* xj = x_check.data() + j * n_cols;
    const double* yj = y.data() + j * n_rows;
    // Contract the checksum row against the operand and sum the output;
    // `scale` tracks the magnitude actually summed so the tolerance bounds
    // a relative discrepancy (cancellation does not false-positive). The
    // reduction runs through the dispatched SIMD kernel table; its pinned
    // eight-lane semantics (see simd.h) keeps the sums bit-identical
    // across ISAs and thread/tile counts.
    double sums[4];
    sweep_kernels().abft_reduce(abft_->colsum.data(), xj, n_cols, yj, n_rows,
                                sums);
    const double chk = sums[0];
    const double chk_scale = sums[1];
    const double sum_y = sums[2];
    const double y_scale = sums[3];
    const double scale = std::max(chk_scale, y_scale);
    const double err = std::abs(sum_y - chk);
    const double rel =
        std::isfinite(err) ? err / std::max(scale, 1e-300)
                           : std::numeric_limits<double>::infinity();
    if (rel > verdict->worst_error) verdict->worst_error = rel;
    if (!(rel <= abft_->rel_tolerance)) {
      verdict->ok = false;
      verdict->bad_columns.push_back(j);
    }
  }
}

namespace {

// Rows per shard of the value sweeps on scalar formats (b = 0), which have
// no block grid to shard by; one 128-row block-row's worth.
constexpr std::size_t kScalarFormatRowGrain = 128;

// Runs fn(r_begin, r_end) over every row of rf: one pool shard per grid
// block-row's rows (untiled) or per tile shard's contiguous block-row range
// (tiled), so every range is made of whole grid bands. Every row owns its
// output (and every band its noise streams), so any shard schedule is
// bit-identical.
template <typename Fn>
void parallel_row_ranges(const RefloatMatrix& rf, const TiledPlan* tiled,
                         Fn&& fn) {
  const auto rows = static_cast<std::size_t>(rf.quantized().rows());
  const std::size_t side = rf.format().b > 0
                               ? std::size_t{1} << rf.format().b
                               : kScalarFormatRowGrain;
  const auto run = [&](std::size_t br_begin, std::size_t br_end) {
    fn(std::min(br_begin * side, rows), std::min(br_end * side, rows));
  };
  if (tiled == nullptr || tiled->empty()) {
    util::ThreadPool::global().parallel_for(
        (rows + side - 1) / side, [&](std::size_t s) { run(s, s + 1); });
    return;
  }
  const std::span<const TileShard> shards = tiled->shards();
  util::ThreadPool::global().parallel_for(shards.size(), [&](std::size_t t) {
    run(shards[t].brow_begin, shards[t].brow_end);
  });
}

// Reusable buffers of the k-RHS sweeps: the quantized column-major batch
// (the ABFT epilogue's operand) and the row-major interleaved (n x k)
// operand/result images. One instance per backend.
struct BatchScratch {
  std::vector<double> columns;
  std::vector<double> x_interleaved;
  std::vector<double> y_interleaved;
};

// Quantizes the k column-major operand vectors per column (identical to the
// single-RHS path) into scratch.columns, which the ABFT epilogue contracts
// against, then transposes them into the row-major n x k interleaved image
// so one matrix entry touches k adjacent operand slots.
void quantize_interleaved(const RefloatMatrix& rf, std::span<const double> x,
                          std::size_t k, BatchScratch& scratch) {
  const auto n_cols = static_cast<std::size_t>(rf.quantized().cols());
  scratch.columns.resize(n_cols * k);
  scratch.x_interleaved.resize(n_cols * k);
  for (std::size_t j = 0; j < k; ++j) {
    rf.quantize_vector(
        x.subspan(j * n_cols, n_cols),
        std::span<double>(scratch.columns).subspan(j * n_cols, n_cols));
  }
  sparse::interleave(scratch.columns, n_cols, k, scratch.x_interleaved);
}

// Per-thread buffers of the noisy band walk, reused across bands and sweeps.
struct NoisyBandScratch {
  std::vector<std::uint32_t> slot_of;   // block column -> slot in its band
  std::vector<std::uint32_t> run_slot;  // per run: its block's slot
  std::vector<double> partial;          // per run: its k partials
  std::vector<std::size_t> row_end;     // per band row: one past its last run
  std::vector<std::size_t> rank;        // per (slot, column): nonzero count,
                                        // then the next draw it takes
  std::vector<double> draws;            // the band's draws, column by column
};

// One grid band (block-row br, 2^b rows) of the noisy sweep (Fig. 10 RTN)
// over the packed operand. It reproduces the block walk of the model: per
// column one stream, drawn in (block, row) order, with zero partials
// skipped.
//
// The entries of a row that share `col >> b` form a run. A run's sum starts
// at +0.0 and adds in ascending column order, so it is the block's per-row
// partial bit for bit. Pass 1 sums every run and counts each block's
// nonzero partials per column. An exclusive prefix over the band's blocks
// (block_index() order) turns the counts into ranks: rows come in ascending
// order, so a block's next nonzero partial takes the next rank. The band's
// draws are taken in rank order. Pass 2 adds each row's runs in ascending
// block order, the partial of rank i scaled by (1 + sigma * draw i).
//
// K > 0 fixes the batch width at compile time; K == 0 reads it from k.
// Operands are row-major interleaved (slot i*k + column; k = 1 is plain).
// The caller sizes s.slot_of to the grid's block columns.
template <std::size_t K, typename V>
void noisy_band(sparse::PackedRows<V> a,
                const RefloatMatrix::BlockIndex& index, int b,
                std::size_t rows, std::size_t br, std::size_t k,
                const double* __restrict__ x, double* __restrict__ y,
                double sigma, util::Rng* rngs, NoisyBandScratch& s) {
  const std::size_t kc = K > 0 ? K : k;
  const std::size_t r0 = br << b;
  const std::size_t r1 = std::min(rows, r0 + (std::size_t{1} << b));
  const std::size_t j0 = index.block_ptr[br];
  const std::size_t blocks = index.block_ptr[br + 1] - j0;
  for (std::size_t j = 0; j < blocks; ++j) {
    s.slot_of[static_cast<std::size_t>(index.block_col[j0 + j])] =
        static_cast<std::uint32_t>(j);
  }
  // A run holds at least one entry, so the band's nnz bounds its runs.
  const auto band_nnz = static_cast<std::size_t>(a.row_ptr[r1] - a.row_ptr[r0]);
  s.run_slot.resize(band_nnz);
  s.partial.resize(band_nnz * kc);
  s.row_end.resize(r1 - r0);
  s.rank.assign(blocks * kc, 0);

  std::size_t runs = 0;
  std::size_t nonzero = 0;
  for (std::size_t r = r0; r < r1; ++r) {
    const auto end = static_cast<std::size_t>(a.row_ptr[r + 1]);
    for (auto e = static_cast<std::size_t>(a.row_ptr[r]); e < end;) {
      const std::uint32_t bc = a.col[e] >> b;
      double* __restrict__ p = s.partial.data() + runs * kc;
      if constexpr (K > 0) {
        double acc[K] = {};
        for (; e < end && (a.col[e] >> b) == bc; ++e) {
          const auto v = static_cast<double>(a.val[e]);
          const double* __restrict__ xs = x + std::size_t{a.col[e]} * K;
          for (std::size_t c = 0; c < K; ++c) acc[c] += v * xs[c];
        }
        std::copy_n(acc, K, p);
      } else {
        std::fill_n(p, kc, 0.0);
        for (; e < end && (a.col[e] >> b) == bc; ++e) {
          const auto v = static_cast<double>(a.val[e]);
          const double* __restrict__ xs = x + std::size_t{a.col[e]} * kc;
          for (std::size_t c = 0; c < kc; ++c) p[c] += v * xs[c];
        }
      }
      const std::uint32_t slot = s.slot_of[bc];
      std::size_t* count = s.rank.data() + std::size_t{slot} * kc;
      for (std::size_t c = 0; c < kc; ++c) {
        if (p[c] == 0.0) continue;
        ++count[c];
        ++nonzero;
      }
      s.run_slot[runs++] = slot;
    }
    s.row_end[r - r0] = runs;
  }

  s.draws.resize(nonzero);
  std::size_t next = 0;
  for (std::size_t c = 0; c < kc; ++c) {
    const std::size_t first = next;
    for (std::size_t j = 0; j < blocks; ++j) {
      const std::size_t count = s.rank[j * kc + c];
      s.rank[j * kc + c] = next;
      next += count;
    }
    for (std::size_t i = first; i < next; ++i) s.draws[i] = rngs[c].gaussian();
  }

  std::size_t q = 0;
  for (std::size_t r = r0; r < r1; ++r) {
    double* __restrict__ ys = y + r * kc;
    std::fill_n(ys, kc, 0.0);
    for (; q < s.row_end[r - r0]; ++q) {
      const double* __restrict__ p = s.partial.data() + q * kc;
      std::size_t* rank = s.rank.data() + std::size_t{s.run_slot[q]} * kc;
      for (std::size_t c = 0; c < kc; ++c) {
        if (p[c] == 0.0) continue;
        ys[c] += p[c] * (1.0 + sigma * s.draws[rank[c]++]);
      }
    }
  }
}

// The noisy sweep of rows [r_begin, r_end), which are whole grid bands:
// band br draws column j's noise from Rng(stream_seed(seeds[j],
// sequences[j], br)), so the result does not depend on which thread or tile
// runs the band. Buffers are per worker thread, not per shard.
void noisy_rows(const RefloatMatrix& rf, std::size_t r_begin,
                std::size_t r_end, std::size_t k, const double* x, double* y,
                double sigma, std::span<const std::uint64_t> seeds,
                std::span<const std::uint64_t> sequences) {
  thread_local NoisyBandScratch scratch;
  thread_local std::vector<util::Rng> rngs;
  const int b = rf.format().b;
  const auto rows = static_cast<std::size_t>(rf.quantized().rows());
  const auto cols = static_cast<std::size_t>(rf.quantized().cols());
  scratch.slot_of.resize((cols + (std::size_t{1} << b) - 1) >> b);
  rf.quantized().visit([&](auto a) {
    for (std::size_t br = r_begin >> b; (br << b) < r_end; ++br) {
      rngs.clear();
      for (std::size_t j = 0; j < k; ++j) {
        rngs.emplace_back(util::stream_seed(seeds[j], sequences[j], br));
      }
      const auto band = [&]<std::size_t K>() {
        noisy_band<K>(a, rf.block_index(), b, rows, br, k, x, y, sigma,
                      rngs.data(), scratch);
      };
      switch (k) {
        case 1: band.template operator()<1>(); break;
        case 2: band.template operator()<2>(); break;
        case 4: band.template operator()<4>(); break;
        case 8: band.template operator()<8>(); break;
        case 16: band.template operator()<16>(); break;
        default: band.template operator()<0>(); break;
      }
    }
  });
}

void sweep_value_single(const RefloatMatrix& rf, const TiledPlan* tiled,
                        std::span<const double> x, std::span<double> y,
                        std::vector<double>& xq) {
  xq.resize(x.size());
  rf.quantize_vector(x, xq);
  // Row by row over the resident packed operand: each row takes its
  // addends in ascending column order, exactly as a blocked walk of the
  // plan delivers them — bit-identical at any thread count, on every SIMD
  // path, for every tile partition, and for scalar (b = 0) formats alike.
  const SweepKernels& kernels = sweep_kernels();
  parallel_row_ranges(rf, tiled, [&](std::size_t r0, std::size_t r1) {
    kernels.spmv_rows(rf.quantized(), r0, r1, xq.data(), y.data());
  });
}

void sweep_value_multi(const RefloatMatrix& rf, const TiledPlan* tiled,
                       std::span<const double> x, std::size_t k,
                       std::span<double> y, BatchScratch& scratch) {
  if (k == 0) return;
  const auto n_rows = static_cast<std::size_t>(rf.quantized().rows());
  quantize_interleaved(rf, x, k, scratch);
  scratch.y_interleaved.resize(n_rows * k);
  // Each matrix entry is read once and applied to all k columns; per column
  // the accumulation order is exactly the single-RHS order, so every column
  // is bit-identical to a solo sweep of that column alone.
  const SweepKernels& kernels = sweep_kernels();
  parallel_row_ranges(rf, tiled, [&](std::size_t r0, std::size_t r1) {
    kernels.spmm_rows(rf.quantized(), r0, r1, k, scratch.x_interleaved.data(),
                      scratch.y_interleaved.data());
  });
  sparse::deinterleave(scratch.y_interleaved, n_rows, k, y);
}

// Noisy sweep of k column-major vectors: column j draws from the streams of
// (seeds[j], sequences[j], grid block-row), so it is bit-identical to a
// solo sweep of x_j under that identity at any thread count and tile split.
// Both spans need >= k entries. The quantized columns (the ABFT epilogue's
// operand) are left in scratch.columns; k = 1 skips the interleave.
void sweep_noisy(const RefloatMatrix& rf, const TiledPlan* tiled,
                 std::span<const double> x, std::size_t k,
                 std::span<double> y, BatchScratch& scratch, double sigma,
                 std::span<const std::uint64_t> seeds,
                 std::span<const std::uint64_t> sequences) {
  if (k == 0) return;
  assert(seeds.size() >= k && sequences.size() >= k);
  const auto n_cols = static_cast<std::size_t>(rf.quantized().cols());
  const auto n_rows = static_cast<std::size_t>(rf.quantized().rows());
  if (rf.format().b == 0) {
    // No block grid: the exact product, then one stream per column scaling
    // every row.
    scratch.columns.resize(n_cols * k);
    for (std::size_t j = 0; j < k; ++j) {
      const std::span<double> xqj =
          std::span<double>(scratch.columns).subspan(j * n_cols, n_cols);
      rf.quantize_vector(x.subspan(j * n_cols, n_cols), xqj);
      const std::span<double> yj = y.subspan(j * n_rows, n_rows);
      sweep_kernels().spmv_rows(rf.quantized(), 0, n_rows, xqj.data(),
                                yj.data());
      util::Rng rng(util::stream_seed(seeds[j], sequences[j], 0));
      for (auto& v : yj) v *= 1.0 + sigma * rng.gaussian();
    }
    return;
  }
  const double* xs = nullptr;
  double* ys = y.data();
  if (k == 1) {
    scratch.columns.resize(n_cols);
    rf.quantize_vector(x, scratch.columns);
    xs = scratch.columns.data();
  } else {
    quantize_interleaved(rf, x, k, scratch);
    scratch.y_interleaved.resize(n_rows * k);
    xs = scratch.x_interleaved.data();
    ys = scratch.y_interleaved.data();
  }
  parallel_row_ranges(rf, tiled, [&](std::size_t r0, std::size_t r1) {
    noisy_rows(rf, r0, r1, k, xs, ys, sigma, seeds, sequences);
  });
  if (k > 1) sparse::deinterleave(scratch.y_interleaved, n_rows, k, y);
}

// Owns-or-borrows the tile partition: every backend supports both the
// "partition for me" (tiles count) and "share the resident partition"
// (borrowed pointer, e.g. the serving layer's cache entry) constructions.
struct TileRouting {
  TiledPlan owned;
  const TiledPlan* borrowed = nullptr;

  TileRouting(const RefloatMatrix& rf, int tiles) {
    if (tiles > 1 && rf.nonzero_blocks() > 0) {
      owned = TiledPlan::partition(rf, {.tiles = tiles});
    }
  }
  TileRouting(const RefloatMatrix& rf, const TiledPlan* tiled)
      : borrowed(tiled) {
    (void)rf;
  }
  [[nodiscard]] const TiledPlan* get() const {
    if (borrowed != nullptr) return borrowed->empty() ? nullptr : borrowed;
    return owned.empty() ? nullptr : &owned;
  }
};

class ValueBackend final : public SweepBackend {
 public:
  template <typename Tiling>
  ValueBackend(const RefloatMatrix& rf, Tiling tiling)
      : rf_(rf), tiles_(rf, tiling) {}

  [[nodiscard]] std::size_t rows() const override {
    return static_cast<std::size_t>(rf_.quantized().rows());
  }
  [[nodiscard]] std::size_t cols() const override {
    return static_cast<std::size_t>(rf_.quantized().cols());
  }
  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::kValue;
  }
  [[nodiscard]] const char* label() const override { return "refloat"; }

  void sweep(std::span<const double> x, std::size_t k, std::span<double> y,
             const SweepContext& ctx) override {
    if (k == 1) {
      sweep_value_single(rf_, tiles_.get(), x, y, xq_);
    } else {
      sweep_value_multi(rf_, tiles_.get(), x, k, y, scratch_);
    }
    finish_sweep(k == 1 ? std::span<const double>(xq_)
                        : std::span<const double>(scratch_.columns),
                 y, k, ctx.verdict);
  }

 private:
  const RefloatMatrix& rf_;
  TileRouting tiles_;
  std::vector<double> xq_;
  BatchScratch scratch_;
};

class NoisyBackend final : public SweepBackend {
 public:
  template <typename Tiling>
  NoisyBackend(const RefloatMatrix& rf, double sigma, std::uint64_t seed,
               Tiling tiling)
      : rf_(rf),
        tiles_(rf, tiling),
        sigma_(sigma),
        seed_(seed) {}

  [[nodiscard]] std::size_t rows() const override {
    return static_cast<std::size_t>(rf_.quantized().rows());
  }
  [[nodiscard]] std::size_t cols() const override {
    return static_cast<std::size_t>(rf_.quantized().cols());
  }
  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::kNoisy;
  }
  [[nodiscard]] const char* label() const override { return "refloat+rtn"; }

  void sweep(std::span<const double> x, std::size_t k, std::span<double> y,
             const SweepContext& ctx) override {
    std::span<const std::uint64_t> seeds = ctx.seeds;
    std::span<const std::uint64_t> sequences = ctx.sequences;
    if (seeds.empty()) {
      // Default identity: the backend's seed (forked per column past 0) and
      // one shared application counter per sweep call — a k=1 operator
      // draws (seed, sequence++), one fresh noise stream per apply.
      default_seeds_.resize(k);
      default_sequences_.assign(k, sequence_);
      for (std::size_t j = 0; j < k; ++j) {
        default_seeds_[j] =
            j == 0 ? seed_ : util::stream_seed(seed_, j, kColumnForkSalt);
      }
      ++sequence_;
      seeds = default_seeds_;
      sequences = default_sequences_;
    }
    sweep_noisy(rf_, tiles_.get(), x, k, y, scratch_, sigma_, seeds,
                sequences);
    finish_sweep(scratch_.columns, y, k, ctx.verdict);
  }

 private:
  const RefloatMatrix& rf_;
  TileRouting tiles_;
  double sigma_;
  std::uint64_t seed_;
  std::uint64_t sequence_ = 0;  // distinct noise per default-context sweep
  std::vector<std::uint64_t> default_seeds_;
  std::vector<std::uint64_t> default_sequences_;
  BatchScratch scratch_;
};

}  // namespace

std::unique_ptr<SweepBackend> make_value_backend(const RefloatMatrix& rf,
                                                 int tiles) {
  return std::make_unique<ValueBackend>(rf, tiles);
}

std::unique_ptr<SweepBackend> make_value_backend(const RefloatMatrix& rf,
                                                 const TiledPlan* tiled) {
  return std::make_unique<ValueBackend>(rf, tiled);
}

std::unique_ptr<SweepBackend> make_noisy_backend(const RefloatMatrix& rf,
                                                 double sigma,
                                                 std::uint64_t seed,
                                                 int tiles) {
  return std::make_unique<NoisyBackend>(rf, sigma, seed, tiles);
}

std::unique_ptr<SweepBackend> make_noisy_backend(const RefloatMatrix& rf,
                                                 double sigma,
                                                 std::uint64_t seed,
                                                 const TiledPlan* tiled) {
  return std::make_unique<NoisyBackend>(rf, sigma, seed, tiled);
}

}  // namespace refloat::core

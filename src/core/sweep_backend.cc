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

// Runs fn(br) for every block-row, one pool shard per block-row (untiled)
// or per tile shard (block-rows serial within a shard). Both schedules
// visit each block-row exactly once, so any fn whose cross-block-row writes
// are disjoint produces bit-identical results under either.
template <typename Fn>
void parallel_block_rows(const SpmvPlan& plan, const TiledPlan* tiled,
                         Fn&& fn) {
  if (tiled == nullptr || tiled->empty()) {
    util::ThreadPool::global().parallel_for(plan.block_rows(), fn);
    return;
  }
  const std::span<const TileShard> shards = tiled->shards();
  util::ThreadPool::global().parallel_for(shards.size(), [&](std::size_t t) {
    const TileShard& s = shards[t];
    for (std::size_t br = s.brow_begin; br < s.brow_end; ++br) fn(br);
  });
}

// Rows per shard of the value sweeps on scalar formats (b = 0), which have
// no block grid to shard by; one 128-row block-row's worth.
constexpr std::size_t kScalarFormatRowGrain = 128;

// Runs fn(r_begin, r_end) over every row of rf: one pool shard per grid
// block-row's rows (untiled) or per tile shard's contiguous block-row range
// (tiled) — the shards the block sweeps use. Every row owns its output, so
// any shard schedule is bit-identical.
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

// One block-row of the noisy sweep: serial (brow, bcol) block order, one
// Gaussian draw per nonzero per-block row partial, in row order. Shared by
// the untiled and tiled noisy paths so they are the same instruction
// sequence per block-row (bit-identity across partitions).
void noisy_block_row(const SpmvPlan& plan, std::size_t br,
                     std::span<const double> xq, std::span<double> y,
                     double sigma, util::Rng& rng,
                     std::vector<double>& partial) {
  const std::size_t side = plan.side();
  partial.resize(side);
  for (std::size_t j = plan.block_ptr[br]; j < plan.block_ptr[br + 1]; ++j) {
    const std::size_t r0 = static_cast<std::size_t>(plan.row0[j]);
    const std::size_t c0 = static_cast<std::size_t>(plan.col0[j]);
    std::fill(partial.begin(), partial.end(), 0.0);
    for (std::size_t e = plan.entry_ptr[j]; e < plan.entry_ptr[j + 1]; ++e) {
      partial[static_cast<std::size_t>(plan.entry_row[e])] +=
          plan.entry_value[e] *
          xq[c0 + static_cast<std::size_t>(plan.entry_col[e])];
    }
    for (std::size_t r = 0; r < side; ++r) {
      if (partial[r] == 0.0) continue;
      y[r0 + r] += partial[r] * (1.0 + sigma * rng.gaussian());
    }
  }
}

// The k-RHS counterpart over the interleaved images (slot i*k + column).
// Per column the partial accumulates in the same entry order and the noise
// draws happen at the same (block, row) points with the same zero skip as
// noisy_block_row — column j is bit-identical to a solo sweep with stream
// rngs[j]. This TU is -ffp-contract=off, so both loops round mul-then-add.
void noisy_block_row_multi(const SpmvPlan& plan, std::size_t br,
                           std::size_t k, const double* xq, double* y,
                           double sigma, util::Rng* rngs,
                           std::vector<double>& partial) {
  const std::size_t side = plan.side();
  partial.resize(side * k);
  for (std::size_t j = plan.block_ptr[br]; j < plan.block_ptr[br + 1]; ++j) {
    const std::size_t r0 = static_cast<std::size_t>(plan.row0[j]);
    const std::size_t c0 = static_cast<std::size_t>(plan.col0[j]);
    std::fill(partial.begin(), partial.end(), 0.0);
    for (std::size_t e = plan.entry_ptr[j]; e < plan.entry_ptr[j + 1]; ++e) {
      const double v = plan.entry_value[e];
      const double* xs =
          xq + (c0 + static_cast<std::size_t>(plan.entry_col[e])) * k;
      double* ps =
          partial.data() + static_cast<std::size_t>(plan.entry_row[e]) * k;
      for (std::size_t c = 0; c < k; ++c) ps[c] += v * xs[c];
    }
    for (std::size_t r = 0; r < side; ++r) {
      const double* ps = partial.data() + r * k;
      double* ys = y + (r0 + r) * k;
      for (std::size_t c = 0; c < k; ++c) {
        if (ps[c] == 0.0) continue;
        ys[c] += ps[c] * (1.0 + sigma * rngs[c].gaussian());
      }
    }
  }
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

void sweep_noisy_single(const RefloatMatrix& rf, const SpmvPlan& plan,
                        const TiledPlan* tiled,
                        std::span<const double> x, std::span<double> y,
                        std::vector<double>& xq, double sigma,
                        std::uint64_t seed, std::uint64_t sequence) {
  xq.resize(x.size());
  rf.quantize_vector(x, xq);
  sparse::fill(y, 0.0);
  if (rf.format().b == 0) {
    sweep_kernels().spmv_rows(rf.quantized(), 0, y.size(), xq.data(),
                              y.data());
    util::Rng rng(util::stream_seed(seed, sequence, 0));
    for (auto& v : y) v *= 1.0 + sigma * rng.gaussian();
    return;
  }
  parallel_block_rows(plan, tiled, [&](std::size_t br) {
    // One counter-based noise stream per (sequence, grid block-row): the
    // draw order within a block-row is the serial block order, so the
    // result does not depend on which thread runs the shard or which tile
    // owns the block-row. The partial buffer is per worker thread (zeroed
    // before each block), not per shard.
    util::Rng rng(util::stream_seed(seed, sequence, br));
    thread_local std::vector<double> partial;
    noisy_block_row(plan, br, xq, y, sigma, rng, partial);
  });
}

// Batched noisy sweep: column j's noise comes from one stream per
// (seeds[j], sequences[j], grid block-row), drawn in the serial block order
// with the same nonzero-partial skip as the single-RHS loop — column j is
// bit-identical to sweep_noisy_single(x_j, seeds[j], sequences[j]) at any
// thread count and tile split. Both spans need >= k entries.
void sweep_noisy_multi(const RefloatMatrix& rf, const SpmvPlan& plan,
                       const TiledPlan* tiled,
                       std::span<const double> x, std::size_t k,
                       std::span<double> y, BatchScratch& scratch,
                       double sigma, std::span<const std::uint64_t> seeds,
                       std::span<const std::uint64_t> sequences) {
  if (k == 0) return;
  assert(seeds.size() >= k && sequences.size() >= k);
  const std::size_t n_cols = static_cast<std::size_t>(rf.quantized().cols());
  const std::size_t n_rows = static_cast<std::size_t>(rf.quantized().rows());
  if (rf.format().b == 0) {
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
  quantize_interleaved(rf, x, k, scratch);
  scratch.y_interleaved.assign(n_rows * k, 0.0);
  parallel_block_rows(plan, tiled, [&](std::size_t br) {
    // k per-column streams per block-row, each keyed exactly as the solo
    // sweep of that column would key it.
    thread_local std::vector<util::Rng> rngs;
    rngs.clear();
    rngs.reserve(k);
    for (std::size_t j = 0; j < k; ++j) {
      rngs.emplace_back(util::stream_seed(seeds[j], sequences[j], br));
    }
    thread_local std::vector<double> partial;
    noisy_block_row_multi(plan, br, k, scratch.x_interleaved.data(),
                          scratch.y_interleaved.data(), sigma, rngs.data(),
                          partial);
  });
  sparse::deinterleave(scratch.y_interleaved, n_rows, k, y);
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
        plan_(SpmvPlan::build(rf)),
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
  [[nodiscard]] std::size_t resident_bytes() const override {
    return plan_.payload_bytes();
  }

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
    if (k == 1) {
      sweep_noisy_single(rf_, plan_, tiles_.get(), x, y, xq_, sigma_,
                         seeds[0], sequences[0]);
    } else {
      sweep_noisy_multi(rf_, plan_, tiles_.get(), x, k, y, scratch_, sigma_,
                        seeds, sequences);
    }
    finish_sweep(k == 1 ? std::span<const double>(xq_)
                        : std::span<const double>(scratch_.columns),
                 y, k, ctx.verdict);
  }

 private:
  const RefloatMatrix& rf_;
  SpmvPlan plan_;  // built from rf_ at construction; empty when b == 0
  TileRouting tiles_;
  double sigma_;
  std::uint64_t seed_;
  std::uint64_t sequence_ = 0;  // distinct noise per default-context sweep
  std::vector<std::uint64_t> default_seeds_;
  std::vector<std::uint64_t> default_sequences_;
  std::vector<double> xq_;
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

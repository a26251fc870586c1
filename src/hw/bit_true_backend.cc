#include "src/hw/bit_true_backend.h"

namespace refloat::hw {

namespace {

// Salt for deriving a column's noise base from its (seed, sequence)
// identity — distinct from the block-row salt (0) the base is consumed
// with, and from core's column-fork salt.
constexpr std::uint64_t kBitTrueNoiseSalt = 0xb17c01ULL;

// Salt folding a reprogram attempt's `salt` into the fault seed: the
// rebuilt image draws a fresh, reproducible fault population.
constexpr std::uint64_t kReprogramSalt = 0x4e409ULL;

}  // namespace

BitTrueBackend::BitTrueBackend(const core::RefloatMatrix& rf,
                               const ClusterConfig& config,
                               std::uint64_t seed,
                               const core::TiledPlan* tiled)
    : rf_(rf),
      config_(config),
      tiled_(tiled),
      rows_(static_cast<std::size_t>(rf.quantized().rows())),
      cols_(static_cast<std::size_t>(rf.quantized().cols())),
      hw_(rf, config, tiled),
      default_rng_(seed) {}

bool BitTrueBackend::reprogram(std::uint64_t salt) {
  ClusterConfig fresh = config_;
  fresh.faults.seed = util::stream_seed(config_.faults.seed, salt,
                                        kReprogramSalt);
  hw_ = HwSpmv(rf_, fresh, tiled_);
  return true;
}

void BitTrueBackend::sweep(std::span<const double> x, std::size_t k,
                           std::span<double> y,
                           const core::SweepContext& ctx) {
  if (k == 0) return;
  bases_.resize(k);
  if (!hw_.noisy()) {
    std::fill(bases_.begin(), bases_.end(), 0);
  } else if (ctx.seeds.empty()) {
    // Default stream: one internal Rng(seed), one draw per column per
    // sweep, in sweep order.
    for (std::size_t j = 0; j < k; ++j) bases_[j] = default_rng_.next();
  } else {
    // Counter-based: column j's base depends only on its own identity, so
    // any batch containing it reproduces its solo noise streams.
    for (std::size_t j = 0; j < k; ++j) {
      bases_[j] =
          util::stream_seed(ctx.seeds[j], ctx.sequences[j], kBitTrueNoiseSalt);
    }
  }
  hw_.apply_multi(x, k, y, bases_);
  // Checked against the RAW operand: the engines quantize x internally, so
  // the checksum tolerance for this view absorbs vector-format truncation
  // (make_abft_checksum callers pass a looser rel_tolerance for bit-true).
  finish_sweep(x, y, k, ctx.verdict);
}

}  // namespace refloat::hw

#include "src/hw/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace refloat::hw {

namespace {

// Deterministic per-cell-bit hash in [0, 1) for fault selection.
double cell_hash(std::uint64_t seed, int row, int col, int plane) {
  const std::uint64_t x = seed ^ (static_cast<std::uint64_t>(row) << 40) ^
                          (static_cast<std::uint64_t>(col) << 20) ^
                          static_cast<std::uint64_t>(plane);
  const std::uint64_t mixed =
      util::splitmix64_mix(x + util::kSplitmix64Golden);
  return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

std::vector<std::vector<std::uint64_t>> polarity_codes(
    const std::vector<std::vector<double>>& block, int base,
    const core::Format& format, const core::QuantPolicy& policy,
    double cell_step, bool positive) {
  std::vector<std::vector<std::uint64_t>> codes(
      block.size(), std::vector<std::uint64_t>(
                        block.empty() ? 0 : block[0].size(), 0));
  for (std::size_t r = 0; r < block.size(); ++r) {
    for (std::size_t c = 0; c < block[r].size(); ++c) {
      const double v = block[r][c];
      if (v == 0.0 || (v > 0.0) != positive) continue;
      const double q =
          core::quantize_value(v, base, format.e, format.f, policy, nullptr);
      codes[r][c] =
          static_cast<std::uint64_t>(std::llround(std::abs(q) / cell_step));
    }
  }
  return codes;
}

}  // namespace

CrossbarCluster::CrossbarCluster(
    const std::vector<std::vector<std::uint64_t>>& m, int planes,
    ClusterConfig config, EccScoreboard* ecc)
    : rows_(static_cast<int>(m.size())),
      cols_(m.empty() ? 0 : static_cast<int>(m[0].size())),
      planes_(planes),
      words_((cols_ + 63) / 64),
      config_(config) {
  if (rows_ > 0xffff) {
    throw std::invalid_argument(
        "CrossbarCluster: too many rows for the 16-bit occupancy index");
  }
  plane_bits_.assign(
      static_cast<std::size_t>(planes_),
      std::vector<std::uint64_t>(
          static_cast<std::size_t>(rows_) * static_cast<std::size_t>(words_),
          0));
  const double sa0 = config_.faults.stuck_at_zero_rate;
  const double sa1 = config_.faults.stuck_at_one_rate;
  for (int p = 0; p < planes_; ++p) {
    auto& bits = plane_bits_[static_cast<std::size_t>(p)];
    for (int r = 0; r < rows_; ++r) {
      for (int c = 0; c < cols_; ++c) {
        bool bit =
            ((m[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] >>
              p) &
             1ull) != 0;
        if (sa0 > 0.0 || sa1 > 0.0) {
          // The same hash (same seed) selects the same cells for either
          // polarity of fault — losing a programmed bit and gaining a
          // spurious one are mirror events on one defect population. A
          // manifested defect is repaired instead of applied while the
          // shared ECC budget lasts (write-verify catches it), and a defect
          // already repaired in this engine's mirror quadrant is repaired
          // for free — the same spare cell serves both polarities, so
          // partial ECC never breaks the pos/neg masking symmetry.
          const double u = cell_hash(config_.faults.seed, r, c, p);
          const bool hit = (u < sa0 && bit) || (u < sa1 && !bit);
          if (hit) {
            const std::uint32_t key = (static_cast<std::uint32_t>(p) << 16) |
                                      (static_cast<std::uint32_t>(r) << 8) |
                                      static_cast<std::uint32_t>(c);
            if (ecc != nullptr && ecc->repaired.contains(key)) {
              ++ecc_corrected_;
            } else if (ecc != nullptr && ecc->budget != nullptr &&
                       *ecc->budget > 0) {
              --*ecc->budget;
              ecc->repaired.insert(key);
              ++ecc_corrected_;
            } else {
              bit = !bit;
              ++faulty_cells_;
            }
          }
        }
        if (bit) {
          bits[static_cast<std::size_t>(r) * words_ + c / 64] |=
              1ull << (c % 64);
        }
      }
    }
  }

  // Index the rows each plane actually holds, now that faults and ECC have
  // settled every bit. Sized exactly so memory_bytes() is the heap held.
  const auto occupied = [&](int p, int r) {
    const std::span<const std::uint64_t> row = plane_row(p, r);
    return std::any_of(row.begin(), row.end(),
                       [](std::uint64_t w) { return w != 0; });
  };
  std::size_t entries = static_cast<std::size_t>(planes_);
  for (int p = 0; p < planes_; ++p) {
    for (int r = 0; r < rows_; ++r) entries += occupied(p, r) ? 1 : 0;
  }
  occupancy_.reserve(entries);
  for (int p = 0; p < planes_; ++p) {
    const std::size_t count_at = occupancy_.size();
    occupancy_.push_back(0);
    for (int r = 0; r < rows_; ++r) {
      if (occupied(p, r)) occupancy_.push_back(static_cast<std::uint16_t>(r));
    }
    occupancy_[count_at] =
        static_cast<std::uint16_t>(occupancy_.size() - count_at - 1);
  }
}

void CrossbarCluster::mvm(const std::vector<std::uint64_t>& x, int x_bits,
                          std::vector<std::int64_t>& y, EngineStats* stats,
                          util::Rng& rng) const {
  std::vector<std::uint64_t> masks;
  input_masks(x, x_bits, masks);
  mvm_masks(masks, y, stats, rng);
}

void CrossbarCluster::input_masks(const std::vector<std::uint64_t>& x,
                                  int x_bits,
                                  std::vector<std::uint64_t>& masks) const {
  masks.assign(static_cast<std::size_t>(x_bits) * words_, 0);
  const std::uint64_t keep =
      x_bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << x_bits) - 1;
  const int n = std::min(cols_, static_cast<int>(x.size()));
  for (int c = 0; c < n; ++c) {
    for (std::uint64_t v = x[static_cast<std::size_t>(c)] & keep; v != 0;
         v &= v - 1) {
      masks[static_cast<std::size_t>(std::countr_zero(v)) * words_ + c / 64] |=
          1ull << (c % 64);
    }
  }
}

void CrossbarCluster::mvm_masks(std::span<const std::uint64_t> masks,
                                std::vector<std::int64_t>& y,
                                EngineStats* stats, util::Rng& rng) const {
  std::fill(y.begin(), y.end(), 0);
  const std::int64_t full_scale = (std::int64_t{1} << config_.adc.bits) - 1;
  const double sigma = config_.noise.sigma;
  const auto words = static_cast<std::size_t>(words_);
  const int x_bits = words == 0 ? 0 : static_cast<int>(masks.size() / words);
  // Tallied locally: a per-sample increment through `stats` is a serial
  // memory dependency on the hot loop.
  long long active_bits = 0;
  long long clips = 0;
  for (int q = 0; q < x_bits; ++q) {
    const std::uint64_t* mask =
        masks.data() + static_cast<std::size_t>(q) * words;
    if (std::all_of(mask, mask + words,
                    [](std::uint64_t w) { return w == 0; })) {
      continue;
    }
    ++active_bits;
    const std::uint16_t* run = occupancy_.data();
    for (int p = 0; p < planes_; ++p) {
      const std::uint64_t* bits =
          plane_bits_[static_cast<std::size_t>(p)].data();
      const std::uint16_t* const rows_end = run + 1 + *run;
      for (const std::uint16_t* it = run + 1; it != rows_end; ++it) {
        const std::uint64_t* row = bits + std::size_t{*it} * words;
        std::int64_t sample = 0;
        for (std::size_t w = 0; w < words; ++w) {
          sample += std::popcount(row[w] & mask[w]);
        }
        if (sigma > 0.0) {
          if (sample == 0) continue;  // a zero sample draws no noise
          sample = std::llround(static_cast<double>(sample) *
                                (1.0 + sigma * rng.gaussian()));
          if (sample < 0) sample = 0;
        }
        // Branch-free clip: half the samples are 0 and would mispredict a
        // skip; a zero sample adds nothing and never clips.
        const bool clipped = sample > full_scale;
        clips += clipped ? 1 : 0;
        y[*it] += (clipped ? full_scale : sample) << (p + q);
      }
      run = rows_end;
    }
  }
  if (stats != nullptr) {
    stats->crossbar_ops += active_bits * planes_ * rows_;
    stats->adc_clips += clips;
  }
}

namespace {

// The shift-add accumulator is 64 bits wide: plane index + input-bit index
// must stay below 63 or `sample << (p + q)` is undefined. Wide formats
// (e.g. BFP64's 54 + 54 planes) belong on the value-faithful path.
int checked_planes(const core::Format& format) {
  const long planes = core::model_bits(format.e, format.f);
  const long x_bits = core::model_bits(format.ev, format.fv);
  if (planes + x_bits - 2 > 62) {
    throw std::invalid_argument(
        "ProcessingEngine: format too wide for the 64-bit bit-serial "
        "datapath");
  }
  return static_cast<int>(planes);
}

}  // namespace

ProcessingEngine::ProcessingEngine(
    const std::vector<std::vector<double>>& block, int base,
    const core::Format& format, ClusterConfig config,
    core::QuantPolicy policy, long long* ecc_budget)
    : side_(static_cast<int>(block.size())),
      base_(base),
      format_(format),
      config_(config),
      policy_(policy),
      cell_step_(std::ldexp(
          1.0, core::window_floor(base, format.e, policy.window) - format.f)),
      ecc_{ecc_budget, {}},
      positive_(polarity_codes(block, base, format, policy_, cell_step_, true),
                checked_planes(format), config,
                ecc_budget != nullptr ? &ecc_ : nullptr),
      negative_(
          polarity_codes(block, base, format, policy_, cell_step_, false),
          checked_planes(format), config,
          ecc_budget != nullptr ? &ecc_ : nullptr) {
  // The scoreboard only matters while the clusters program.
  ecc_.repaired.clear();
}

void ProcessingEngine::apply(std::span<const double> x, std::span<double> y,
                             EngineStats* stats, util::Rng& rng) const {
  EngineScratch scratch;
  apply(x, y, stats, rng, scratch);
}

void ProcessingEngine::apply(std::span<const double> x, std::span<double> y,
                             EngineStats* stats, util::Rng& rng,
                             EngineScratch& scratch) const {
  // Quantize the incoming segment in ReFloat vector format and split it
  // into positive / negative bit-serial phases.
  const int base_x = core::select_block_base(x, format_.ev, policy_);
  const double step_x = std::ldexp(
      1.0, core::window_floor(base_x, format_.ev, policy_.window) -
               format_.fv);
  const int x_bits =
      static_cast<int>(core::model_bits(format_.ev, format_.fv));

  scratch.x_pos.assign(x.size(), 0);
  scratch.x_neg.assign(x.size(), 0);
  for (std::size_t j = 0; j < x.size(); ++j) {
    const double q = core::quantize_value(x[j], base_x, format_.ev,
                                          format_.fv, policy_, nullptr);
    const auto code =
        static_cast<std::uint64_t>(std::llround(std::abs(q) / step_x));
    if (q > 0.0) {
      scratch.x_pos[j] = code;
    } else if (q < 0.0) {
      scratch.x_neg[j] = code;
    }
  }

  scratch.pp.resize(static_cast<std::size_t>(side_));
  scratch.pn.resize(static_cast<std::size_t>(side_));
  scratch.np.resize(static_cast<std::size_t>(side_));
  scratch.nn.resize(static_cast<std::size_t>(side_));
  // Both clusters share the block's width, so one mask set per input
  // polarity serves all four quadrant passes.
  positive_.input_masks(scratch.x_pos, x_bits, scratch.pos_masks);
  positive_.input_masks(scratch.x_neg, x_bits, scratch.neg_masks);
  positive_.mvm_masks(scratch.pos_masks, scratch.pp, stats, rng);
  positive_.mvm_masks(scratch.neg_masks, scratch.pn, stats, rng);
  negative_.mvm_masks(scratch.pos_masks, scratch.np, stats, rng);
  negative_.mvm_masks(scratch.neg_masks, scratch.nn, stats, rng);

  const double scale = cell_step_ * step_x;
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] += scale * static_cast<double>(scratch.pp[i] - scratch.pn[i] -
                                        scratch.np[i] + scratch.nn[i]);
  }
}

}  // namespace refloat::hw

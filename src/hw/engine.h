// Bit-true crossbar datapath (paper §V): cell values are bit-sliced across
// planes of a 2^b x 2^b crossbar, inputs stream in bit-serially, and every
// (plane, input-bit) partial passes through a clipping ADC before the
// digital shift-add. This is the value-exact model of what the arch/ layer
// only prices — used by the ADC/fault ablations.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "src/core/format.h"
#include "src/util/random.h"

namespace refloat::hw {

struct AdcConfig {
  int bits = 10;  // Table IV provisions a 10-bit SAR ADC
};

struct FaultConfig {
  double stuck_at_zero_rate = 0.0;
  double stuck_at_one_rate = 0.0;
  std::uint64_t seed = 0x5eedULL;  // cell-selection hash seed
};

struct NoiseConfig {
  double sigma = 0.0;  // relative RTN deviation on each ADC sample
};

// Modeled programming-time ECC: a correction budget (spare cells / remap
// entries) that repairs stuck-at defects as write-verify detects them. The
// budget is shared by every cluster programmed against the same counter
// (per tile in the tiled HwSpmv) and consumed in programming order; defects
// past the budget land as usual. A repair replaces the defective CELL, so
// when a defect manifests in both polarity quadrants of an engine (the
// shared-defect-population assumption behind the four-quadrant fault
// masking), one budget charge repairs both manifestations — partial ECC
// must never break the pos/neg symmetry that makes paired faults cancel.
struct EccConfig {
  long long correct_cells = 0;  // defect repairs available (0 = ECC off)
};

struct ClusterConfig {
  AdcConfig adc;
  FaultConfig faults;
  NoiseConfig noise;
  EccConfig ecc;
};

struct EngineStats {
  long long crossbar_ops = 0;   // (plane, input-bit, row) ADC samples
  long long adc_clips = 0;      // samples clipped at full scale
  long long faulty_cells = 0;   // cell-bits altered by stuck-at faults
  long long ecc_corrected = 0;  // faulty cell-bits repaired by ECC

  EngineStats& operator+=(const EngineStats& other) {
    crossbar_ops += other.crossbar_ops;
    adc_clips += other.adc_clips;
    faulty_cells += other.faulty_cells;
    ecc_corrected += other.ecc_corrected;
    return *this;
  }
};

// Reusable buffers for the bit-serial datapath. One instance per thread:
// with a scratch supplied, ProcessingEngine::apply allocates nothing — the
// difference between this and a fresh set of vectors per block dominates
// the per-iteration cost of the solver-driven ablations.
struct EngineScratch {
  std::vector<std::uint64_t> x_pos, x_neg;          // bit-serial input phases
  std::vector<std::uint64_t> pos_masks, neg_masks;  // their input-bit masks
  std::vector<std::int64_t> pp, pn, np, nn;         // quadrant accumulators
};

// One signed-magnitude polarity of a block: integer cell codes bit-sliced
// into planes, with stuck-at faults applied at programming time. The same
// FaultConfig seed selects the same faulty cells in every cluster of an
// engine — the physical assumption behind the four-quadrant fault masking
// bench_ablation_faults demonstrates.
// Correction state shared by the two polarity clusters of one engine: the
// remaining tile-wide budget plus the (row, col, plane) defects already
// repaired in this engine — a later manifestation of a repaired defect is
// fixed for free (same spare cell). Only read during construction.
struct EccScoreboard {
  long long* budget = nullptr;
  std::unordered_set<std::uint32_t> repaired;  // key: (p << 16)|(r << 8)|c
};

class CrossbarCluster {
 public:
  // `ecc`, when non-null, enables programming-time fault repair against the
  // scoreboard's budget (see EccConfig). Throws std::invalid_argument for
  // more rows than the 16-bit occupancy index can name.
  CrossbarCluster(const std::vector<std::vector<std::uint64_t>>& m,
                  int planes, ClusterConfig config = {},
                  EccScoreboard* ecc = nullptr);

  // y[i] = sum_j m[i][j] * x[j], computed plane-by-plane and input-bit by
  // input-bit through the ADC. Bits of x at or above x_bits are ignored.
  // Allocates its masks; ProcessingEngine uses input_masks + mvm_masks.
  void mvm(const std::vector<std::uint64_t>& x, int x_bits,
           std::vector<std::int64_t>& y, EngineStats* stats,
           util::Rng& rng) const;

  // The bit-serial input phases of x: mask q (words at q * words_) has bit
  // c set when bit q of x[c] is set. One set serves every cluster of the
  // same width, so an engine builds it once per input polarity.
  void input_masks(const std::vector<std::uint64_t>& x, int x_bits,
                   std::vector<std::uint64_t>& masks) const;
  // mvm on prebuilt input_masks. Visits only the (plane, row) bit-slices
  // the occupancy index lists: an empty slice's sample is provably 0, and a
  // zero sample draws no noise, never clips and adds nothing, so y, the Rng
  // sequence and adc_clips match the dense loop exactly. crossbar_ops still
  // counts every modeled sample: planes x rows per active input bit.
  void mvm_masks(std::span<const std::uint64_t> masks,
                 std::vector<std::int64_t>& y, EngineStats* stats,
                 util::Rng& rng) const;

  // Programmed bit-slice of `row` on `plane`, after faults and ECC repair.
  [[nodiscard]] std::span<const std::uint64_t> plane_row(int plane,
                                                         int row) const {
    return {plane_bits_[static_cast<std::size_t>(plane)].data() +
                static_cast<std::size_t>(row) * words_,
            static_cast<std::size_t>(words_)};
  }
  [[nodiscard]] int planes() const { return planes_; }
  [[nodiscard]] long long faulty_cells() const { return faulty_cells_; }
  [[nodiscard]] long long ecc_corrected() const { return ecc_corrected_; }
  // Heap bytes held by the programmed plane bit-slices and the occupancy
  // index.
  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t bytes = occupancy_.size() * sizeof(std::uint16_t);
    for (const auto& plane : plane_bits_) {
      bytes += plane.size() * sizeof(std::uint64_t);
    }
    return bytes;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  int planes_ = 0;
  int words_ = 0;  // 64-bit words per row per plane
  ClusterConfig config_;
  long long faulty_cells_ = 0;
  long long ecc_corrected_ = 0;
  // plane_bits_[p][row * words_ + w]: bit j of cell (row, j) on plane p.
  std::vector<std::vector<std::uint64_t>> plane_bits_;
  // Occupancy index, one run per plane in plane order: the count n of rows
  // with any set bit on that plane, then those n rows ascending. Built
  // after faults and ECC have settled plane_bits_, never changed after.
  std::vector<std::uint16_t> occupancy_;
};

// A full signed block: positive/negative cell quadrants x positive/negative
// input phases, around the ReFloat encoding (base exponent + e-bit window +
// f-bit fractions for the matrix; ev/fv for the streamed vector segment).
class ProcessingEngine {
 public:
  // The policy must match the one the block was quantized with, or the
  // re-encoding here diverges from the value-faithful path. Throws
  // std::invalid_argument for formats too wide for the 64-bit shift-add
  // datapath (planes + vector bits - 2 must stay below 63).
  // `ecc_budget` (optional) is the shared correction counter. Both polarity
  // clusters draw on it through one per-engine scoreboard (positive
  // programmed first, so consumption order is deterministic), and a defect
  // repaired in one quadrant is repaired in the mirror quadrant for free.
  ProcessingEngine(const std::vector<std::vector<double>>& block, int base,
                   const core::Format& format, ClusterConfig config = {},
                   core::QuantPolicy policy = {},
                   long long* ecc_budget = nullptr);

  // y += block * x in refloat semantics via the bit-true path. x and y span
  // the engine's block side. `scratch` must not be shared between threads;
  // the overload without it allocates per call.
  void apply(std::span<const double> x, std::span<double> y,
             EngineStats* stats, util::Rng& rng,
             EngineScratch& scratch) const;
  void apply(std::span<const double> x, std::span<double> y,
             EngineStats* stats, util::Rng& rng) const;

  [[nodiscard]] int side() const { return side_; }
  // Programming-time fault outcome over both polarity clusters.
  [[nodiscard]] long long faulty_cells() const {
    return positive_.faulty_cells() + negative_.faulty_cells();
  }
  [[nodiscard]] long long ecc_corrected() const {
    return positive_.ecc_corrected() + negative_.ecc_corrected();
  }
  // Heap bytes of both polarity clusters' programmed planes.
  [[nodiscard]] std::size_t memory_bytes() const {
    return positive_.memory_bytes() + negative_.memory_bytes();
  }

 private:
  int side_ = 0;
  int base_ = 0;
  core::Format format_;
  ClusterConfig config_;
  core::QuantPolicy policy_;
  double cell_step_ = 1.0;  // value of one matrix code unit
  // Declared before the clusters: both consume it during their
  // construction; the repaired set is released afterwards.
  EccScoreboard ecc_;
  CrossbarCluster positive_;
  CrossbarCluster negative_;
};

}  // namespace refloat::hw

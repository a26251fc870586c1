// Bit-true SweepBackend: the hw/ crossbar datapath (stuck-at faults, ADC
// clipping, ECC repair, optional conductance noise) behind the shared
// core::SweepBackend interface. The expensive part — programming the
// engines, drawing the per-tile fault populations, consuming the ECC
// scoreboards — happens ONCE at construction and serves every subsequent
// sweep and every column of a batch: the modeled-hardware-honest
// amortization the arch layer prices with bit_true_spmm_time. The SpmvPlan
// the image is programmed from is built for that pass and freed after it;
// the backend keeps only the programmed engines (resident_bytes()).
//
// Stream semantics: with an empty SweepContext, sweep number s draws its
// per-column noise bases from one internal Rng(seed), one next() per
// column per sweep in sweep order. With explicit per-column
// (seeds[j], sequences[j]), column j's base is a pure counter-based
// function of its identity, so a batched solve reproduces each column's
// solo trajectory bit-for-bit.
#pragma once

#include <memory>

#include "src/core/sweep_backend.h"
#include "src/hw/hw_spmv.h"

namespace refloat::hw {

class BitTrueBackend final : public core::SweepBackend {
 public:
  // Monolithic programming (one tile). `seed` feeds the default-context
  // noise base stream; fault seeds come from config.faults.seed as always.
  BitTrueBackend(const core::RefloatMatrix& rf, const ClusterConfig& config,
                 std::uint64_t seed = 0x817b17ULL);
  // Tiled programming: per-tile fault populations and ECC budgets, exactly
  // the tiled HwSpmv constructor over SpmvPlan::build(rf). `rf` and `tiled`
  // are borrowed for the backend's lifetime (reprogram() rebuilds the plan
  // and the image from them).
  BitTrueBackend(const core::RefloatMatrix& rf, const ClusterConfig& config,
                 const core::TiledPlan& tiled,
                 std::uint64_t seed = 0x817b17ULL);

  [[nodiscard]] std::size_t rows() const override { return rows_; }
  [[nodiscard]] std::size_t cols() const override { return cols_; }
  [[nodiscard]] core::BackendKind kind() const override {
    return core::BackendKind::kBitTrue;
  }
  [[nodiscard]] const char* label() const override { return "hw+bittrue"; }

  void sweep(std::span<const double> x, std::size_t k, std::span<double> y,
             const core::SweepContext& ctx) override;

  // Recovery-ladder hook: reprograms the crossbar from scratch with a
  // fresh fault population — config.faults.seed forked by `salt` — exactly
  // as real hardware would re-image a tile whose cells drifted. The plan
  // is rebuilt from rf (so damage to rf's packed operand survives a
  // reprogram); format and tile partition are unchanged; with zero
  // configured fault rate the rebuilt image sweeps bit-identically to the
  // original. The arch layer prices this as one full write-verify
  // programming pass (arch::reprogram_seconds). Always returns true.
  bool reprogram(std::uint64_t salt) override;
  [[nodiscard]] long reprogram_count() const { return reprograms_; }
  [[nodiscard]] std::size_t resident_bytes() const override {
    return hw_.resident_bytes();
  }

  // The programmed datapath (fault/ECC tallies, engine stats, resident
  // bytes) — benches and the serving layer read these.
  [[nodiscard]] HwSpmv& hw() { return hw_; }
  [[nodiscard]] const HwSpmv& hw() const { return hw_; }

 private:
  const core::RefloatMatrix& rf_;
  ClusterConfig config_;                       // fault seed of the ORIGINAL image
  const core::TiledPlan* tiled_ = nullptr;     // borrowed; null = monolithic
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  HwSpmv hw_;
  util::Rng default_rng_;
  std::vector<std::uint64_t> bases_;
  long reprograms_ = 0;
};

std::unique_ptr<core::SweepBackend> make_bit_true_backend(
    const core::RefloatMatrix& rf, const ClusterConfig& config,
    std::uint64_t seed = 0x817b17ULL);

}  // namespace refloat::hw

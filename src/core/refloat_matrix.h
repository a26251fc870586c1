// RefloatMatrix: a CSR matrix converted to the ReFloat block format —
// per-block shared base exponent, e-bit per-value exponent offsets, f-bit
// fractions (paper §IV). The conversion keeps two things:
//   * the dequantized operand (`quantized()`) as a sparse::PackedCsr —
//     uint32 columns and one value code per matrix (fp32 when every
//     dequantized value is fp32-exact, else fp64) — the operand of the
//     value-faithful sweeps, the ABFT checksum, the definiteness probe and
//     SpmvPlan::build, and
//   * a compact block index (`block_index()`): per grid block-row its range
//     of nonzero blocks, and per block its block column and shared base
//     exponent — what tiling, the storage model and the block walkers need
//     beyond the CSR.
// It keeps no SpmvPlan: the views that walk blocks (bit-true programming,
// the schedule model) build one with SpmvPlan::build(rf), so a value or
// noisy resident pins the packed operand and the index alone.
//
// A RefloatMatrix holds the operand; it does not sweep itself. Every sweep
// of it — value-faithful, noisy (Fig. 10) or bit-true — goes through
// core::SweepBackend (src/core/sweep_backend.h, and hw::BitTrueBackend),
// which owns the quantize -> sharded sweep -> ABFT epilogue once.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/format.h"
#include "src/sparse/csr.h"
#include "src/sparse/packed_csr.h"

namespace refloat::core {

struct ConversionStats {
  std::size_t values = 0;           // nonzeros quantized
  std::size_t overflowed = 0;       // above the offset window
  std::size_t underflowed = 0;      // below it, but not zeroed
  std::size_t flushed_to_zero = 0;  // became exactly zero
  // Max over blocks of the offset bits a block actually needs:
  // ceil(log2(spread of exponents within the block)).
  int locality_bits = 0;
  // ||A - quantized(A)||_F / ||A||_F.
  double rel_error_fro = 0.0;
  // Filled by probe_definiteness(): Lanczos Ritz estimates of the quantized
  // operator's extreme eigenvalues. probe_steps == 0 means not probed yet.
  int probe_steps = 0;
  double probe_lambda_min = 0.0;
  double probe_lambda_max = 0.0;
  // Coarse quantization can push a thin-lambda_min SPD operator indefinite
  // (the documented Dubcova2/BiCGSTAB stall); a non-positive smallest Ritz
  // value predicts that stall before a solver wastes its iteration budget.
  [[nodiscard]] bool likely_indefinite() const {
    return probe_steps > 0 && probe_lambda_min <= 0.0;
  }
};

class RefloatMatrix {
 public:
  // Grid block-row br owns blocks [block_ptr[br], block_ptr[br + 1]); block
  // j sits at block column block_col[j] with base exponent base[j]. Blocks
  // are in ascending (block-row, block-column) order and include blocks
  // whose entries all quantized to zero. block_ptr covers every grid
  // block-row (an all-zero band is an empty range); all three are empty
  // when format().b == 0.
  struct BlockIndex {
    std::vector<std::size_t> block_ptr;
    std::vector<std::int32_t> block_col;
    std::vector<std::int16_t> base;

    [[nodiscard]] std::size_t size() const { return block_col.size(); }
    [[nodiscard]] std::size_t block_rows() const {
      return block_ptr.empty() ? 0 : block_ptr.size() - 1;
    }
    [[nodiscard]] std::size_t bytes() const {
      return block_ptr.size() * sizeof(std::size_t) +
             block_col.size() * sizeof(std::int32_t) +
             base.size() * sizeof(std::int16_t);
    }
  };

  // Converts `a`, which must be canonical (sparse::Csr::canonical(): row_ptr
  // from 0 to nnz, never decreasing; columns strictly ascending within
  // [0, cols) per row) and address at most UINT32_MAX columns —
  // std::invalid_argument otherwise, raised before any allocation. The
  // conversion streams one 2^b-row band (grid block-row) at a time: it
  // groups the band's entries by block column (BandScatter), visits the
  // touched block columns in ascending order (base selection, quantization,
  // index append), then appends the band's nonzero quantized entries to
  // quantized() in row order, widening quantized() to the fp64 code at the
  // first value fp32 cannot hold exactly. Blocks and the error sums in
  // stats() therefore follow (block-row, block-column, row-major entry)
  // order.
  RefloatMatrix(const sparse::Csr& a, const Format& format,
                const QuantPolicy& policy = {});

  [[nodiscard]] const Format& format() const { return format_; }
  [[nodiscard]] const QuantPolicy& policy() const { return policy_; }
  [[nodiscard]] const ConversionStats& stats() const { return stats_; }
  // Dequantized matrix (exact-value view of the quantized operator), packed:
  // the operand the value sweeps read row by row. quantized().to_csr() is
  // the same operand as an FP64 CSR, for tests and benches.
  [[nodiscard]] const sparse::PackedCsr& quantized() const {
    return quantized_;
  }
  [[nodiscard]] const BlockIndex& block_index() const { return index_; }
  [[nodiscard]] std::size_t nonzero_blocks() const { return index_.size(); }
  // Mutable access to the stored value codes of quantized() (a span of
  // float or of double, per quantized().code()), for the fault-injection
  // layer only: the kPlanBuild site corrupts a freshly built resident in
  // place after its ABFT checksum was taken and before its backend is built
  // — value and noisy backends sweep these values, a bit-true backend
  // builds its SpmvPlan from them — so checked sweeps can prove they detect
  // silent corruption of the operand. Production code never calls this.
  [[nodiscard]] sparse::PackedCsr::MutableValues mutable_quantized_codes() {
    return quantized_.mutable_values();
  }

  // Runs `steps` Lanczos iterations on quantized() (square matrices only)
  // and caches the extreme Ritz values into stats() — a cheap definiteness
  // probe: stats().likely_indefinite() predicts the CG/BiCGSTAB stall on
  // operators that quantization pushed indefinite. Deterministic; repeat
  // calls with steps <= the cached probe reuse it. The default is sized to
  // the hardest suite case: Dubcova2's quantization-induced lambda_min of
  // ~-1e-3 under lambda_max ~10 only surfaces after ~96 steps (fewer steps
  // read a small *positive* upper bound); 96 SpMVs is still noise next to
  // the 25000-iteration budget the stall would burn. Not safe to call
  // concurrently from multiple threads for the same matrix.
  const ConversionStats& probe_definiteness(int steps = 96) const;

  // Host heap bytes a resident (built) matrix pins: the packed operand's
  // arrays plus the block index. The serving layer's residency cache
  // budgets this plus whatever the entry's backend adds
  // (SweepBackend::resident_bytes) — the software mirror of "programmed
  // crossbar capacity is the scarce resource" (the cache evicts by these
  // bytes so programming cost is paid once per resident matrix).
  [[nodiscard]] std::size_t resident_bytes() const {
    return quantized_.memory_bytes() + index_.bytes();
  }

  // --- Fig. 4 storage model ----------------------------------------------
  // Per nonzero: 2b in-block index bits + sign + e + f.
  // Per block: block-grid coordinates + an 11-bit base exponent.
  [[nodiscard]] long long storage_bits() const;
  [[nodiscard]] long long baseline_coo_bits() const;  // 128 bits/nonzero
  [[nodiscard]] long long baseline_csr_bits() const;
  [[nodiscard]] double memory_overhead_vs_coo() const;

  // Quantizes a dense vector in ReFloat vector format: per 2^b segment, a
  // shared base (ev-bit window) and fv-bit fractions.
  void quantize_vector(std::span<const double> x,
                       std::span<double> out) const;

 private:
  Format format_;
  QuantPolicy policy_;
  mutable ConversionStats stats_;  // probe fields filled lazily
  sparse::PackedCsr quantized_;
  BlockIndex index_;  // empty when format_.b == 0
  sparse::Index original_nnz_ = 0;
  sparse::Index rows_ = 0;
  sparse::Index cols_ = 0;
};

}  // namespace refloat::core

// RefloatMatrix: a CSR matrix converted to the ReFloat block format —
// per-block shared base exponent, e-bit per-value exponent offsets, f-bit
// fractions (paper §IV). The conversion keeps both views:
//   * the dequantized CSR (`quantized()`), the operand of the value-faithful
//     sweeps, the ABFT checksum and the definiteness probe, and
//   * the contiguous SpmvPlan (`plan()`), the SoA block payload consumed by
//     the noisy sweeps (whose per-block partials are part of the model), the
//     bit-true hw/ datapath, tiling and the storage model.
//
// The SpMV paths shard by block-row over util::ThreadPool::global()
// ($REFLOAT_THREADS). Block-rows own disjoint output rows and every output
// row accumulates in ascending column order, so the result is bit-identical
// at any thread count.
//
// Every spmv_* method below is a thin wrapper over the shared sweep layer
// in src/core/sweep_backend.{h,cc} (core::detail::sweep_*), which owns the
// quantize -> interleave -> sharded block-row sweep scaffolding once for
// the value-faithful and noisy paths, tiled and untiled, k=1 and k-RHS.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/format.h"
#include "src/core/spmv_plan.h"
#include "src/core/tiled_plan.h"
#include "src/sparse/csr.h"
#include "src/util/random.h"

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

// Reusable buffers for spmv_refloat_multi: the quantized column-major
// batch and the row-major interleaved (n x k) operand/result images. One
// instance per caller thread, like the single-RHS scratch.
struct MultiSpmvScratch {
  std::vector<double> columns;
  std::vector<double> x_interleaved;
  std::vector<double> y_interleaved;
};

class RefloatMatrix {
 public:
  // Converts `a`, which must be canonical (sparse::Csr::canonical(): row_ptr
  // from 0 to nnz, never decreasing; columns strictly ascending within
  // [0, cols) per row) — std::invalid_argument otherwise. The conversion
  // streams one 2^b-row band (grid block-row) at a time: it groups the
  // band's entries by block column, visits the touched block columns in
  // ascending order (base selection, quantization, plan append), then
  // appends the band's nonzero quantized entries to quantized() in row
  // order. Blocks, plan entries and the error sums in stats() therefore
  // follow (block-row, block-column, row-major entry) order.
  RefloatMatrix(const sparse::Csr& a, const Format& format,
                const QuantPolicy& policy = {});

  [[nodiscard]] const Format& format() const { return format_; }
  [[nodiscard]] const QuantPolicy& policy() const { return policy_; }
  [[nodiscard]] const ConversionStats& stats() const { return stats_; }
  // Dequantized matrix (exact-value view of the quantized operator): the
  // operand the value sweeps read row by row.
  [[nodiscard]] const sparse::Csr& quantized() const { return quantized_; }
  [[nodiscard]] std::size_t nonzero_blocks() const {
    return plan_.num_blocks();
  }
  // The contiguous block payload: block-row CSR index + SoA entry arena,
  // built once here and shared by every blocked consumer (the noisy spmv
  // paths below, hw::HwSpmv programming, tiling, the storage model). Empty
  // when format().b == 0 (scalar formats have no blocks).
  [[nodiscard]] const SpmvPlan& plan() const { return plan_; }
  // Mutable access to the swept operands, for the fault-injection layer
  // only: the kPlanBuild site corrupts a freshly built resident in place —
  // the plan arena under noisy and bit-true backends, the dequantized CSR
  // values under value backends — after its ABFT checksum was taken, so
  // checked sweeps can prove they detect silent corruption of what they
  // actually read. Production code never calls these.
  [[nodiscard]] SpmvPlan& mutable_plan() { return plan_; }
  [[nodiscard]] std::span<double> mutable_quantized_values() {
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

  // Host heap bytes a resident (built) matrix pins: the dequantized CSR
  // view plus the SpmvPlan arena. This is what the serving layer's
  // residency cache budgets against — the software mirror of "programmed
  // crossbar capacity is the scarce resource" (the cache evicts by these
  // bytes so programming cost is paid once per resident matrix).
  [[nodiscard]] std::size_t resident_bytes() const {
    return quantized_.memory_bytes() + plan_.payload_bytes();
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

  // y = quantize(A) * quantize(x). Accumulation is exact (the accelerator
  // accumulates digitally after the ADC). `scratch` holds the quantized
  // input between calls to avoid reallocation. Runs row ranges on the
  // global thread pool; bit-identical at any thread count.
  void spmv_refloat(std::span<const double> x, std::span<double> y,
                    std::vector<double>& scratch) const;

  // Batched SpMM: Y = quantize(A) * quantize(X) for k right-hand sides.
  // x is k column-major vectors of cols() entries each (x.size() == k *
  // cols()), y likewise k vectors of rows() entries. Reads every matrix
  // entry ONCE per batch — the software mirror of streaming k vectors
  // through one programmed crossbar image — and each column's result is
  // bit-identical to a spmv_refloat call on that column alone, at any
  // thread count.
  void spmv_refloat_multi(std::span<const double> x, std::size_t k,
                          std::span<double> y,
                          MultiSpmvScratch& scratch) const;

  // Tiled y = quantize(A) * quantize(x): one thread-pool shard per tile
  // shard, each sweeping the rows of its contiguous block-row range with
  // the same row kernels as spmv_refloat.
  // Tiling is a pure scheduling change: bit-identical to spmv_refloat for
  // any partition of this matrix's plan, at any thread count. `tiled` must
  // have been partitioned from this matrix's plan().
  void spmv_refloat_tiled(const TiledPlan& tiled, std::span<const double> x,
                          std::span<double> y,
                          std::vector<double>& scratch) const;

  // Tiled counterpart of spmv_refloat_noisy. Noise streams stay keyed per
  // (seed, sequence, grid block-row) — not per tile — so the result is
  // bit-identical to the untiled noisy path for any partition and any
  // thread count.
  void spmv_refloat_noisy_tiled(const TiledPlan& tiled,
                                std::span<const double> x,
                                std::span<double> y,
                                std::vector<double>& scratch, double sigma,
                                std::uint64_t seed,
                                std::uint64_t sequence) const;

  // Same as spmv_refloat, with multiplicative Gaussian noise of deviation
  // `sigma` applied to every per-block row partial — the RTN
  // conductance-noise model of Fig. 10. Noise comes from counter-based
  // streams seeded per (seed, sequence, block-row), so the result is
  // reproducible at any thread count; pass a distinct `sequence` per
  // application (e.g. the solver iteration) to get fresh noise each call.
  void spmv_refloat_noisy(std::span<const double> x, std::span<double> y,
                          std::vector<double>& scratch, double sigma,
                          std::uint64_t seed, std::uint64_t sequence) const;

  // Batched noisy SpMM: the k-RHS counterpart of spmv_refloat_noisy.
  // Column j draws from streams keyed per (seeds[j], sequences[j], grid
  // block-row), so it is bit-identical to spmv_refloat_noisy on that column
  // alone with (seeds[j], sequences[j]) — at any thread count. Both spans
  // need >= k entries. (Tiled variants of the batched sweeps live behind
  // core::SweepBackend; this is the untiled entry point.)
  void spmv_refloat_noisy_multi(std::span<const double> x, std::size_t k,
                                std::span<double> y,
                                MultiSpmvScratch& scratch, double sigma,
                                std::span<const std::uint64_t> seeds,
                                std::span<const std::uint64_t> sequences)
      const;

 private:
  Format format_;
  QuantPolicy policy_;
  mutable ConversionStats stats_;  // probe fields filled lazily
  sparse::Csr quantized_;
  SpmvPlan plan_;  // empty (no blocks) when format_.b == 0
  sparse::Index original_nnz_ = 0;
  sparse::Index rows_ = 0;
  sparse::Index cols_ = 0;
};

}  // namespace refloat::core

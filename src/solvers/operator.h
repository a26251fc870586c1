// The platform operators of the evaluation that do not sweep a ReFloat
// backend: exact double, the Feinberg [32] fixed-point baseline, and global
// FP truncation (Table I). The ReFloat platform in all three execution
// views is solve::BackendMultiOperator (src/solvers/batched.h). Each
// runs its single-vector SpMV on the k columns one by one, in column order
// (each gathered out of the interleaved batch and scattered back), so a
// column's result never depends on the batch it rides in.
//
// Threading contract: parallelism lives *inside* the SpMV (block-row shards
// on util::ThreadPool::global()), so apply() is called from one solver
// thread. Scratch buffers are per-instance, never shared across operators:
// one instance must not be applied concurrently from two threads, but
// distinct instances (one per solve) can run side by side.
#pragma once

#include <span>
#include <vector>

#include "src/solvers/solver.h"
#include "src/sparse/csr.h"

namespace refloat::solve {

// Exact FP64 SpMV — the GPU/double platform.
class CsrOperator final : public MultiOperator {
 public:
  explicit CsrOperator(const sparse::Csr& a) : a_(a) {}
  void apply(std::span<const double> x, std::size_t k, std::span<double> y,
             std::span<const std::size_t> columns) override;
  [[nodiscard]] sparse::Index dim() const override { return a_.rows(); }

 private:
  const sparse::Csr& a_;
  std::vector<double> x_col_;
  std::vector<double> y_col_;
};

// Feinberg et al. [32]: matrix-global shared exponent, 52-bit fixed-point
// fractions, a 2^6-position exponent window below the global maximum.
// Entries whose exponent falls out of the window flush to zero — the
// mechanism behind the paper's Feinberg non-convergence cases (per-block
// bases are exactly what ReFloat adds).
class FeinbergOperator final : public MultiOperator {
 public:
  explicit FeinbergOperator(const sparse::Csr& a);
  FeinbergOperator(const FeinbergOperator&) = delete;  // exact_ points in
  FeinbergOperator& operator=(const FeinbergOperator&) = delete;
  void apply(std::span<const double> x, std::size_t k, std::span<double> y,
             std::span<const std::size_t> columns) override {
    exact_.apply(x, k, y, columns);
  }
  [[nodiscard]] sparse::Index dim() const override {
    return quantized_.rows();
  }
  [[nodiscard]] std::size_t flushed() const { return flushed_; }

  static constexpr int kExponentBits = 6;
  static constexpr int kFractionBits = 52;

 private:
  sparse::Csr quantized_;
  CsrOperator exact_{quantized_};
  std::size_t flushed_ = 0;
};

// Global IEEE-style truncation (Table I): the matrix is truncated once to
// exp_bits/frac_bits; every operator application also truncates its input,
// as a solver holding all state in the narrow format would.
struct TruncateSpec {
  int exp_bits = 11;
  int frac_bits = 52;
};

class TruncatedOperator final : public MultiOperator {
 public:
  TruncatedOperator(const sparse::Csr& a, TruncateSpec spec);
  TruncatedOperator(const TruncatedOperator&) = delete;  // exact_ points in
  TruncatedOperator& operator=(const TruncatedOperator&) = delete;
  void apply(std::span<const double> x, std::size_t k, std::span<double> y,
             std::span<const std::size_t> columns) override;
  [[nodiscard]] sparse::Index dim() const override {
    return quantized_.rows();
  }

 private:
  TruncateSpec spec_;
  sparse::Csr quantized_;
  CsrOperator exact_{quantized_};
  std::vector<double> scratch_;
};

}  // namespace refloat::solve

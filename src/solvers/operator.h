// The platform operators of the evaluation: exact double, ReFloat (any
// core::SweepBackend view, including Fig. 10's RTN noise), the Feinberg
// [32] fixed-point baseline, and global FP truncation (Table I).
//
// Threading contract: parallelism lives *inside* the SpMV (block-row shards
// on util::ThreadPool::global()), so apply() is called from one solver
// thread. Scratch buffers are per-instance, never shared across operators:
// one instance must not be applied concurrently from two threads, but
// distinct instances (one per solve) can run side by side.
#pragma once

#include <span>
#include <vector>

#include "src/core/sweep_backend.h"
#include "src/solvers/solver.h"
#include "src/sparse/csr.h"

namespace refloat::solve {

// Exact FP64 SpMV — the GPU/double platform.
class CsrOperator final : public LinearOperator {
 public:
  explicit CsrOperator(const sparse::Csr& a) : a_(a) {}
  void apply(std::span<const double> x, std::span<double> y) override {
    a_.spmv(x, y);
  }
  [[nodiscard]] sparse::Index dim() const override { return a_.rows(); }
  [[nodiscard]] std::string label() const override { return "double"; }

 private:
  const sparse::Csr& a_;
};

// k=1 adapter over any core::SweepBackend — the ReFloat platform operator
// in all three execution views (value "refloat", noisy "refloat+rtn",
// bit-true "hw+bittrue"). The backend is borrowed and outlives the
// operator; apply() is one default-context sweep, so a stochastic backend
// draws a fresh (seed, sequence++) stream per application and a solve is
// reproducible at any REFLOAT_THREADS / REFLOAT_TILES setting.
class BackendOperator final : public LinearOperator {
 public:
  explicit BackendOperator(core::SweepBackend& backend) : backend_(backend) {}
  void apply(std::span<const double> x, std::span<double> y) override {
    backend_.sweep(x, 1, y, {});
  }
  [[nodiscard]] sparse::Index dim() const override {
    return static_cast<sparse::Index>(backend_.rows());
  }
  [[nodiscard]] std::string label() const override {
    return backend_.label();
  }

 private:
  core::SweepBackend& backend_;
};

// Feinberg et al. [32]: matrix-global shared exponent, 52-bit fixed-point
// fractions, a 2^6-position exponent window below the global maximum.
// Entries whose exponent falls out of the window flush to zero — the
// mechanism behind the paper's Feinberg non-convergence cases (per-block
// bases are exactly what ReFloat adds).
class FeinbergOperator final : public LinearOperator {
 public:
  explicit FeinbergOperator(const sparse::Csr& a);
  void apply(std::span<const double> x, std::span<double> y) override {
    quantized_.spmv(x, y);
  }
  [[nodiscard]] sparse::Index dim() const override {
    return quantized_.rows();
  }
  [[nodiscard]] std::string label() const override { return "feinberg"; }
  [[nodiscard]] std::size_t flushed() const { return flushed_; }

  static constexpr int kExponentBits = 6;
  static constexpr int kFractionBits = 52;

 private:
  sparse::Csr quantized_;
  std::size_t flushed_ = 0;
};

// Global IEEE-style truncation (Table I): the matrix is truncated once to
// exp_bits/frac_bits; every operator application also truncates its input,
// as a solver holding all state in the narrow format would.
struct TruncateSpec {
  int exp_bits = 11;
  int frac_bits = 52;
};

class TruncatedOperator final : public LinearOperator {
 public:
  TruncatedOperator(const sparse::Csr& a, TruncateSpec spec);
  void apply(std::span<const double> x, std::span<double> y) override;
  [[nodiscard]] sparse::Index dim() const override {
    return quantized_.rows();
  }
  [[nodiscard]] std::string label() const override { return "truncated"; }

 private:
  TruncateSpec spec_;
  sparse::Csr quantized_;
  std::vector<double> scratch_;
};

}  // namespace refloat::solve

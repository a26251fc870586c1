#include "src/solvers/operator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "src/gen/grid.h"
#include "src/solvers/batched.h"
#include "tests/reference_solvers.h"

namespace refloat::solve {
namespace {

TEST(TruncatedOperator, Fp64SpecIsIdentity) {
  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(8, 8));
  TruncatedOperator op(a, {.exp_bits = 11, .frac_bits = 52});
  std::vector<double> x(static_cast<std::size_t>(a.rows()), 0.0);
  x[5] = 0.7231;
  std::vector<double> y_t(x.size());
  std::vector<double> y_ref(x.size());
  reference::one_column(op)(x, y_t);
  a.spmv(x, y_ref);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(y_t[i], y_ref[i]);
  }
}

TEST(TruncatedOperator, FractionTruncationPerturbs) {
  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(8, 8));
  TruncatedOperator op(a, {.exp_bits = 11, .frac_bits = 8});
  std::vector<double> x(static_cast<std::size_t>(a.rows()), 1.0 / 3.0);
  std::vector<double> y_t(x.size());
  std::vector<double> y_ref(x.size());
  reference::one_column(op)(x, y_t);
  a.spmv(x, y_ref);
  double max_err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    max_err = std::max(max_err, std::abs(y_t[i] - y_ref[i]));
  }
  EXPECT_GT(max_err, 0.0);
  EXPECT_LT(max_err, 1e-1);
}

TEST(FeinbergOperator, FlushesOutOfWindowEntries) {
  // Global dynamic range of 2^80 >> the 2^6-position window: the tiny
  // entries must flush; a narrow-range matrix keeps everything.
  std::vector<sparse::Triplet> wide = {{0, 0, 1.0},
                                       {1, 1, std::ldexp(1.0, -80)},
                                       {2, 2, 2.0}};
  FeinbergOperator flushing(sparse::Csr::from_triplets(3, 3, wide));
  EXPECT_EQ(flushing.flushed(), 1u);

  const sparse::Csr narrow = gen::build_stencil(gen::laplace2d_5pt(8, 8));
  FeinbergOperator keeping(narrow);
  EXPECT_EQ(keeping.flushed(), 0u);
  // And on narrow-range matrices it behaves like double (52-bit fractions).
  std::vector<double> x(static_cast<std::size_t>(narrow.rows()), 0.5);
  std::vector<double> y_f(x.size());
  std::vector<double> y_ref(x.size());
  reference::one_column(keeping)(x, y_f);
  narrow.spmv(x, y_ref);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y_f[i], y_ref[i], 1e-12);
  }
}

TEST(BackendMultiOperator, NoisyDeterministicPerSeedAndNoisy) {
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(12, 12)).shifted(0.1);
  const core::RefloatMatrix rf(a, core::default_format());
  std::vector<double> x(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<double> y1(x.size());
  std::vector<double> y2(x.size());
  std::vector<double> y_clean(x.size());

  const auto noisy1 = core::make_noisy_backend(rf, 0.05, 99);
  const auto noisy2 = core::make_noisy_backend(rf, 0.05, 99);
  BackendMultiOperator op1(*noisy1, 1, 99);
  BackendMultiOperator op2(*noisy2, 1, 99);
  reference::one_column(op1)(x, y1);
  reference::one_column(op2)(x, y2);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(y1[i], y2[i]);  // same seed, same draw sequence
  }

  const auto value = core::make_value_backend(rf);
  BackendMultiOperator clean(*value, 1);
  reference::one_column(clean)(x, y_clean);
  double diff = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    diff = std::max(diff, std::abs(y1[i] - y_clean[i]));
  }
  EXPECT_GT(diff, 0.0);
}

TEST(BackendMultiOperator, ColumnIdBeyondCapacityThrows) {
  // A capacity-1 operator must refuse to drive a k = 4 batch rather than
  // index its per-column seeds and counters out of bounds.
  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(6, 6));
  const core::RefloatMatrix rf(a, core::default_format());
  const auto noisy = core::make_noisy_backend(rf, 0.05, 99);
  BackendMultiOperator op(*noisy, 1, 99);
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t k = 4;
  const std::vector<double> x(k * n, 1.0);
  std::vector<double> y(k * n);
  const std::size_t columns[] = {0, 1, 2, 3};
  EXPECT_THROW(op.apply(x, k, y, columns), std::out_of_range);

  const std::vector<double> b = make_rhs_batch(a, k);
  SolveOptions opts;
  EXPECT_THROW(cg_multi(op, b, k, opts), std::out_of_range);
  EXPECT_THROW(bicgstab_multi(op, b, k, opts), std::out_of_range);
}

TEST(Operators, Dims) {
  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(6, 6));
  const core::RefloatMatrix rf(a, core::default_format());
  CsrOperator d(a);
  const auto value = core::make_value_backend(rf);
  const auto noisy = core::make_noisy_backend(rf, 0.05, 99);
  BackendMultiOperator r(*value, 1);
  BackendMultiOperator rn(*noisy, 1);
  FeinbergOperator f(a);
  TruncatedOperator t(a, {});
  EXPECT_EQ(d.dim(), 36);
  EXPECT_EQ(r.dim(), 36);
  EXPECT_EQ(rn.dim(), 36);
  EXPECT_EQ(f.dim(), 36);
  EXPECT_EQ(t.dim(), 36);
}

void expect_same_solve(const SolveResult& got, const SolveResult& want,
                       const char* what) {
  EXPECT_EQ(got.status, want.status) << what;
  EXPECT_EQ(got.iterations, want.iterations) << what;
  EXPECT_EQ(got.final_residual, want.final_residual) << what;
  ASSERT_EQ(got.trace, want.trace) << what;
  ASSERT_EQ(got.solution, want.solution) << what;
}

TEST(Operators, PlatformOperatorsSolveBitIdenticalToReference) {
  // The double, Feinberg and truncated platforms run through the k = 1
  // lockstep drivers exactly as the serial reference methods run them.
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(14, 10)).shifted(0.1);
  const std::vector<double> b = make_rhs(a);
  SolveOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 2000;

  CsrOperator csr(a);
  expect_same_solve(cg_multi(csr, b, 1, opts).columns[0],
                    reference::cg(reference::spmv(a), b, opts), "double cg");
  expect_same_solve(bicgstab_multi(csr, b, 1, opts).columns[0],
                    reference::bicgstab(reference::spmv(a), b, opts),
                    "double bicgstab");

  FeinbergOperator feinberg(a);
  FeinbergOperator feinberg_ref(a);
  expect_same_solve(
      cg_multi(feinberg, b, 1, opts).columns[0],
      reference::cg(reference::one_column(feinberg_ref), b, opts),
      "feinberg cg");
  expect_same_solve(
      bicgstab_multi(feinberg, b, 1, opts).columns[0],
      reference::bicgstab(reference::one_column(feinberg_ref), b, opts),
      "feinberg bicgstab");

  // 20 fraction bits: the input truncation perturbs every apply.
  const TruncateSpec spec{.exp_bits = 11, .frac_bits = 20};
  TruncatedOperator truncated(a, spec);
  TruncatedOperator truncated_ref(a, spec);
  expect_same_solve(
      cg_multi(truncated, b, 1, opts).columns[0],
      reference::cg(reference::one_column(truncated_ref), b, opts),
      "truncated cg");
  expect_same_solve(
      bicgstab_multi(truncated, b, 1, opts).columns[0],
      reference::bicgstab(reference::one_column(truncated_ref), b, opts),
      "truncated bicgstab");
}

}  // namespace
}  // namespace refloat::solve

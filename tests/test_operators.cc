#include "src/solvers/operator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/gen/grid.h"
#include "src/solvers/cg.h"

namespace refloat::solve {
namespace {

TEST(TruncatedOperator, Fp64SpecIsIdentity) {
  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(8, 8));
  TruncatedOperator op(a, {.exp_bits = 11, .frac_bits = 52});
  std::vector<double> x(static_cast<std::size_t>(a.rows()), 0.0);
  x[5] = 0.7231;
  std::vector<double> y_t(x.size());
  std::vector<double> y_ref(x.size());
  op.apply(x, y_t);
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
  op.apply(x, y_t);
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
  keeping.apply(x, y_f);
  narrow.spmv(x, y_ref);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y_f[i], y_ref[i], 1e-12);
  }
}

TEST(BackendOperator, NoisyDeterministicPerSeedAndNoisy) {
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(12, 12)).shifted(0.1);
  const core::RefloatMatrix rf(a, core::default_format());
  std::vector<double> x(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<double> y1(x.size());
  std::vector<double> y2(x.size());
  std::vector<double> y_clean(x.size());

  const auto noisy1 = core::make_noisy_backend(rf, 0.05, 99);
  const auto noisy2 = core::make_noisy_backend(rf, 0.05, 99);
  BackendOperator op1(*noisy1);
  BackendOperator op2(*noisy2);
  op1.apply(x, y1);
  op2.apply(x, y2);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(y1[i], y2[i]);  // same seed, same draw sequence
  }

  const auto value = core::make_value_backend(rf);
  BackendOperator clean(*value);
  clean.apply(x, y_clean);
  double diff = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    diff = std::max(diff, std::abs(y1[i] - y_clean[i]));
  }
  EXPECT_GT(diff, 0.0);
}

TEST(Operators, LabelsAndDims) {
  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(6, 6));
  const core::RefloatMatrix rf(a, core::default_format());
  CsrOperator d(a);
  const auto value = core::make_value_backend(rf);
  const auto noisy = core::make_noisy_backend(rf, 0.05, 99);
  BackendOperator r(*value);
  BackendOperator rn(*noisy);
  FeinbergOperator f(a);
  EXPECT_EQ(d.label(), "double");
  EXPECT_EQ(r.label(), "refloat");
  EXPECT_EQ(rn.label(), "refloat+rtn");
  EXPECT_EQ(f.label(), "feinberg");
  EXPECT_EQ(d.dim(), 36);
  EXPECT_EQ(r.dim(), 36);
  EXPECT_EQ(rn.dim(), 36);
  EXPECT_EQ(f.dim(), 36);
}

}  // namespace
}  // namespace refloat::solve

// The lockstep batching contract: cg_multi / bicgstab_multi are
// orchestration only — every column's trajectory (status, iteration count,
// residuals, trace, solution) is bit-identical to running the serial
// reference solver (tests/reference_solvers.h) on that column alone, even
// when columns terminate at different iterations, and the batch issues far
// fewer operator applications than k sequential solves. Inputs whose sizes
// disagree with k are rejected before anything is read.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/gen/grid.h"
#include "src/solvers/batched.h"
#include "src/solvers/operator.h"
#include "src/util/thread_pool.h"
#include "tests/reference_solvers.h"

namespace refloat::solve {
namespace {

sparse::Csr test_matrix() {
  return gen::build_stencil(gen::laplace2d_5pt(16, 12)).shifted(0.15);
}

core::Format test_format() {
  core::Format fmt = core::default_format();
  fmt.b = 4;
  return fmt;
}

void expect_columns_match_serial(const BatchedSolveResult& batch,
                                 const std::vector<SolveResult>& serial) {
  ASSERT_EQ(batch.columns.size(), serial.size());
  for (std::size_t c = 0; c < serial.size(); ++c) {
    const SolveResult& got = batch.columns[c];
    const SolveResult& want = serial[c];
    EXPECT_EQ(got.status, want.status) << "column " << c;
    EXPECT_EQ(got.iterations, want.iterations) << "column " << c;
    EXPECT_EQ(got.final_residual, want.final_residual) << "column " << c;
    ASSERT_EQ(got.solution.size(), want.solution.size());
    for (std::size_t i = 0; i < want.solution.size(); ++i) {
      ASSERT_EQ(got.solution[i], want.solution[i])
          << "column " << c << " row " << i;
    }
    ASSERT_EQ(got.trace.size(), want.trace.size()) << "column " << c;
    for (std::size_t i = 0; i < want.trace.size(); ++i) {
      ASSERT_EQ(got.trace[i], want.trace[i])
          << "column " << c << " trace " << i;
    }
  }
}

TEST(BatchedSolve, CgMultiBitIdenticalToSequentialCg) {
  util::ThreadPool::set_global_threads(1);
  const sparse::Csr a = test_matrix();
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t k = 4;
  std::vector<double> b = make_rhs_batch(a, k);
  // Desynchronize convergence: columns reach the absolute tolerance at
  // different iterations when their right-hand sides differ in norm.
  for (std::size_t i = 0; i < n; ++i) b[2 * n + i] *= 40.0;

  SolveOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 2000;

  std::vector<SolveResult> serial;
  for (std::size_t c = 0; c < k; ++c) {
    const auto backend = core::make_value_backend(rf);
    serial.push_back(reference::cg(reference::default_sweep(*backend),
                                   std::span<const double>(b).subspan(c * n, n),
                                   opts));
  }
  // Columns must genuinely differ, or the lockstep dropout path is untested.
  EXPECT_NE(serial[0].iterations, serial[2].iterations);

  const auto backend = core::make_value_backend(rf);
  BackendMultiOperator multi(*backend, k);
  const BatchedSolveResult batch = cg_multi(multi, b, k, opts);
  expect_columns_match_serial(batch, serial);

  // The whole point: far fewer operator invocations than k solves' applies,
  // while the per-column application count is conserved.
  long serial_applies = 0;
  for (const SolveResult& r : serial) serial_applies += r.iterations;
  EXPECT_EQ(batch.column_applies, serial_applies);
  EXPECT_LT(batch.batched_applies, batch.column_applies);
}

TEST(BatchedSolve, BicgstabMultiBitIdenticalToSequentialBicgstab) {
  util::ThreadPool::set_global_threads(1);
  const sparse::Csr a = test_matrix();
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t k = 3;
  std::vector<double> b = make_rhs_batch(a, k);
  for (std::size_t i = 0; i < n; ++i) b[n + i] *= 25.0;

  SolveOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 2000;

  std::vector<SolveResult> serial;
  for (std::size_t c = 0; c < k; ++c) {
    const auto backend = core::make_value_backend(rf);
    serial.push_back(reference::bicgstab(
        reference::default_sweep(*backend),
        std::span<const double>(b).subspan(c * n, n), opts));
  }

  const auto backend = core::make_value_backend(rf);
  BackendMultiOperator multi(*backend, k);
  const BatchedSolveResult batch = bicgstab_multi(multi, b, k, opts);
  expect_columns_match_serial(batch, serial);
  EXPECT_LT(batch.batched_applies, batch.column_applies);
}

TEST(BatchedSolve, CsrOperatorColumnsMatchAndHandleMaxIterations) {
  // A column-by-column operator (the exact double platform) must satisfy
  // the same contract, with a budget small enough that every column stops
  // at max-iterations.
  util::ThreadPool::set_global_threads(1);
  const sparse::Csr a = test_matrix();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t k = 2;
  const std::vector<double> b = make_rhs_batch(a, k);

  SolveOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 7;

  std::vector<SolveResult> serial;
  for (std::size_t c = 0; c < k; ++c) {
    serial.push_back(reference::cg(
        reference::spmv(a), std::span<const double>(b).subspan(c * n, n),
        opts));
  }
  ASSERT_EQ(serial[0].status, SolveStatus::kMaxIterations);

  CsrOperator multi(a);
  const BatchedSolveResult batch = cg_multi(multi, b, k, opts);
  expect_columns_match_serial(batch, serial);
  EXPECT_FALSE(batch.all_converged());
}

TEST(BatchedSolve, RejectsInputsThatDisagreeWithK) {
  // Every size is checked against k before a vector is copied: a short b,
  // a tolerances span of the wrong length, or a short warm start would
  // otherwise be read past its end.
  const sparse::Csr a = test_matrix();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t k = 2;
  CsrOperator op(a);
  SolveOptions opts;
  const std::vector<double> one_column = make_rhs(a);
  const std::vector<double> b = make_rhs_batch(a, k);
  const std::vector<double> long_b = make_rhs_batch(a, k + 1);
  const std::vector<double> one_tolerance = {1e-8};
  const std::vector<double> three_tolerances = {1e-8, 1e-8, 1e-8};
  const std::vector<double> short_x0(n, 0.0);

  for (const bool use_cg : {true, false}) {
    const auto solve = [&](std::span<const double> rhs,
                           std::span<const double> tolerances,
                           std::span<const double> x0) {
      return use_cg ? cg_multi(op, rhs, k, opts, tolerances, x0)
                    : bicgstab_multi(op, rhs, k, opts, tolerances, x0);
    };
    EXPECT_THROW(solve(one_column, {}, {}), std::invalid_argument);
    EXPECT_THROW(solve(long_b, {}, {}), std::invalid_argument);
    EXPECT_THROW(solve(b, one_tolerance, {}), std::invalid_argument);
    EXPECT_THROW(solve(b, three_tolerances, {}), std::invalid_argument);
    EXPECT_THROW(solve(b, {}, short_x0), std::invalid_argument);
    EXPECT_NO_THROW(solve(b, {}, {}));
  }
}

TEST(BatchedSolve, MakeRhsBatchColumnsAreDistinctAndColumnZeroIsMakeRhs) {
  const sparse::Csr a = test_matrix();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = make_rhs_batch(a, 3);
  ASSERT_EQ(b.size(), 3 * n);
  const std::vector<double> b0 = make_rhs(a);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(b[i], b0[i]);
  bool differs = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (b[n + i] != b[2 * n + i]) differs = true;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace refloat::solve

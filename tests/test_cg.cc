// CG is the k = 1 case of the lockstep driver: every single-RHS solve in
// the library is cg_multi(op, b, 1, options).columns[0].
#include <gtest/gtest.h>

#include "src/core/refloat_matrix.h"
#include "src/gen/grid.h"
#include "src/solvers/batched.h"
#include "src/solvers/operator.h"
#include "src/sparse/vector_ops.h"

namespace refloat::solve {
namespace {

SolveResult solo_cg(MultiOperator& op, std::span<const double> b,
                    const SolveOptions& options) {
  return cg_multi(op, b, 1, options).columns[0];
}

TEST(Cg, ConvergesOnSpdLaplaceToTau) {
  // The ISSUE's acceptance case: CG on a small SPD Laplace matrix to 1e-8.
  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(16, 16));
  const std::vector<double> b = make_rhs(a);
  CsrOperator op(a);
  SolveOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 2000;
  const SolveResult result = solo_cg(op, b, opts);
  EXPECT_EQ(result.status, SolveStatus::kConverged);
  EXPECT_LE(result.final_residual, 1e-8);
  EXPECT_GT(result.iterations, 1);

  // The recursive residual must agree with the true residual here.
  SolveResult checked = result;
  attach_true_residual(a, b, checked);
  EXPECT_NEAR(checked.true_residual, result.final_residual, 1e-9);
}

TEST(Cg, TraceIsMonotoneAtTheTail) {
  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(12, 12));
  const std::vector<double> b = make_rhs(a);
  CsrOperator op(a);
  SolveOptions opts;
  opts.tolerance = 1e-10;
  opts.max_iterations = 2000;
  const SolveResult result = solo_cg(op, b, opts);
  ASSERT_GE(result.trace.size(), 2u);
  EXPECT_DOUBLE_EQ(result.trace.front(), sparse::norm2(b));
  EXPECT_LT(result.trace.back(), result.trace.front());
}

TEST(Cg, TinyRhsConvergesAtFirstResidualCheck) {
  // The gridgena behaviour: ||b|| below tau -> 1 iteration everywhere.
  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(8, 8));
  const std::vector<double> b = make_rhs(a, 5e-9);
  CsrOperator op(a);
  SolveOptions opts;
  opts.tolerance = 1e-8;
  const SolveResult result = solo_cg(op, b, opts);
  EXPECT_EQ(result.status, SolveStatus::kConverged);
  EXPECT_EQ(result.iterations, 1);
}

TEST(Cg, ValueBackendOperatorConvergesWithExtraIterations) {
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(24, 24)).shifted(0.05);
  const std::vector<double> b = make_rhs(a);
  SolveOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 5000;
  opts.stall_window = 800;

  CsrOperator exact(a);
  const SolveResult exact_result = solo_cg(exact, b, opts);
  ASSERT_EQ(exact_result.status, SolveStatus::kConverged);

  const core::RefloatMatrix rf(a, core::default_format());
  const auto backend = core::make_value_backend(rf);
  BackendMultiOperator quantized(*backend, 1);
  const SolveResult rf_result = solo_cg(quantized, b, opts);
  EXPECT_EQ(rf_result.status, SolveStatus::kConverged);
  // Table VI shape: refloat converges, usually paying some extra iterations.
  EXPECT_GE(rf_result.iterations, exact_result.iterations);
  EXPECT_LE(rf_result.iterations, 4 * exact_result.iterations);
}

TEST(Cg, StallDetectionFires) {
  // An operator that injects a fixed error floor: the residual cannot pass
  // it, so the stall window must trigger.
  class FloorOperator final : public MultiOperator {
   public:
    explicit FloorOperator(const sparse::Csr& a) : a_(a) {}
    void apply(std::span<const double> x, std::size_t k, std::span<double> y,
               std::span<const std::size_t> /*columns*/) override {
      const std::size_t n = static_cast<std::size_t>(a_.rows());
      for (std::size_t j = 0; j < k; ++j) {
        a_.spmv(x.subspan(j * n, n), y.subspan(j * n, n));
        y[j * n] += 1e-4;  // constant inconsistency
      }
    }
    [[nodiscard]] sparse::Index dim() const override { return a_.rows(); }

   private:
    const sparse::Csr& a_;
  };

  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(8, 8));
  const std::vector<double> b = make_rhs(a);
  FloorOperator op(a);
  SolveOptions opts;
  opts.tolerance = 1e-12;
  opts.max_iterations = 10000;
  opts.stall_window = 50;
  const SolveResult result = solo_cg(op, b, opts);
  EXPECT_EQ(result.status, SolveStatus::kStalled);
  EXPECT_LT(result.iterations, opts.max_iterations);
}

}  // namespace
}  // namespace refloat::solve

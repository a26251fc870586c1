// BiCGSTAB is the k = 1 case of the lockstep driver:
// bicgstab_multi(op, b, 1, options).columns[0].
#include <gtest/gtest.h>

#include "src/core/refloat_matrix.h"
#include "src/gen/grid.h"
#include "src/solvers/batched.h"
#include "src/solvers/operator.h"

namespace refloat::solve {
namespace {

SolveResult solo_cg(MultiOperator& op, std::span<const double> b,
                    const SolveOptions& options) {
  return cg_multi(op, b, 1, options).columns[0];
}

SolveResult solo_bicgstab(MultiOperator& op, std::span<const double> b,
                          const SolveOptions& options) {
  return bicgstab_multi(op, b, 1, options).columns[0];
}

TEST(Bicgstab, ConvergesOnSpdLaplace) {
  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(16, 16));
  const std::vector<double> b = make_rhs(a);
  CsrOperator op(a);
  SolveOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 2000;
  const SolveResult result = solo_bicgstab(op, b, opts);
  EXPECT_EQ(result.status, SolveStatus::kConverged);

  SolveResult checked = result;
  attach_true_residual(a, b, checked);
  EXPECT_LE(checked.true_residual, 1e-7);
}

TEST(Bicgstab, FewerIterationsThanCgPerIterationCount) {
  // One BiCGSTAB iteration does two SpMVs, so its iteration count runs
  // roughly half of CG's on SPD systems (Table VI's pattern).
  const sparse::Csr a = gen::build_stencil(gen::laplace2d_5pt(20, 20));
  const std::vector<double> b = make_rhs(a);
  SolveOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 4000;
  CsrOperator op_cg(a);
  CsrOperator op_bi(a);
  const SolveResult r_cg = solo_cg(op_cg, b, opts);
  const SolveResult r_bi = solo_bicgstab(op_bi, b, opts);
  ASSERT_EQ(r_cg.status, SolveStatus::kConverged);
  ASSERT_EQ(r_bi.status, SolveStatus::kConverged);
  EXPECT_LT(r_bi.iterations, r_cg.iterations);
}

TEST(Bicgstab, ValueBackendOperatorConverges) {
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(24, 24)).shifted(0.05);
  const std::vector<double> b = make_rhs(a);
  const core::RefloatMatrix rf(a, core::default_format());
  const auto backend = core::make_value_backend(rf);
  BackendMultiOperator op(*backend, 1);
  SolveOptions opts;
  opts.tolerance = 1e-8;
  opts.max_iterations = 5000;
  opts.stall_window = 1000;
  const SolveResult result = solo_bicgstab(op, b, opts);
  EXPECT_EQ(result.status, SolveStatus::kConverged);
}

}  // namespace
}  // namespace refloat::solve

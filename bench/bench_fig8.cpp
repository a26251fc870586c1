// Figure 8: solver-time speedup vs the GPU baseline for Feinberg [32],
// Feinberg-fc and ReFloat, CG and BiCGSTAB, on the 12 Table V matrices.
//
// The functional solves determine iteration counts and convergence; the
// arch models turn them into solver time. Paper anchors: geometric-mean
// speedups 0.8362x (Feinberg-fc) / 12.59x (ReFloat) for CG and 1.036x /
// 13.34x for BiCGSTAB; Feinberg non-convergent on 6 of 12 matrices.
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "src/arch/cost.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace refloat::bench {
namespace {

struct PaperGmn {
  double feinberg_fc;
  double refloat;
};

void run_solver(SolverKind solver, ResultCache& cache,
                util::CsvWriter& csv, const PaperGmn& paper) {
  std::printf("--- %s ---\n", solver_name(solver));
  util::Table table({"ID", "matrix", "blocks", "rounds(RF)", "GPU",
                     "Feinberg", "Feinberg-fc", "ReFloat"});
  std::vector<double> fc_speedups;
  std::vector<double> rf_speedups;
  int feinberg_nc = 0;

  for (const gen::SuiteSpec& spec : gen::suite()) {
    const MatrixBundle bundle = load_bundle(spec);
    const SolveRecord rd = run_solve(bundle, solver, Platform::kDouble, cache);
    const SolveRecord rf = run_solve(bundle, solver, Platform::kRefloat, cache);
    const SolveRecord fb =
        run_solve(bundle, solver, Platform::kFeinberg, cache);
    const SpeedupRow row = compute_speedups(bundle, solver, rd, fb, rf);

    const long rounds =
        arch::deployment_cost(arch::refloat_config(bundle.format),
                              bundle.rf.nonzero_blocks())
            .rounds;
    if (row.feinberg == 0.0) ++feinberg_nc;
    if (row.feinberg_fc > 0.0) fc_speedups.push_back(row.feinberg_fc);
    if (row.refloat > 0.0) rf_speedups.push_back(row.refloat);

    table.add_row({std::to_string(spec.ss_id), spec.name,
                   util::fmt_i(
                       static_cast<long long>(bundle.rf.nonzero_blocks())),
                   std::to_string(rounds), "1.00",
                   row.feinberg > 0.0 ? util::fmt_f(row.feinberg, 2) : "NC",
                   util::fmt_f(row.feinberg_fc, 2),
                   row.refloat > 0.0 ? util::fmt_f(row.refloat, 2) : "NC"});
    csv.row({solver_name(solver), spec.name,
             std::to_string(bundle.rf.nonzero_blocks()),
             util::fmt_g(row.gpu_seconds, 6),
             util::fmt_g(row.feinberg, 6), util::fmt_g(row.feinberg_fc, 6),
             util::fmt_g(row.refloat, 6)});
  }
  table.print();
  std::printf(
      "  GMN speedup vs GPU:  Feinberg-fc %.4gx (paper %.4gx)   "
      "ReFloat %.4gx (paper %.4gx)\n",
      util::geomean(fc_speedups), paper.feinberg_fc,
      util::geomean(rf_speedups), paper.refloat);
  std::printf("  Feinberg non-converged on %d of 12 matrices (paper: 6)\n\n",
              feinberg_nc);
}

}  // namespace
}  // namespace refloat::bench

int main() {
  using namespace refloat::bench;
  std::printf("=== Figure 8: performance of GPU / Feinberg / Feinberg-fc / "
              "ReFloat ===\n");
  std::printf("Platform (Table IV): 128x128 crossbars, 17.18 Gb compute "
              "ReRAM, 107 ns/op, 50.88 ns row write\n");
  std::printf("Formats: Feinberg e=6,f=52; ReFloat(7,3,3)(3,8) "
              "(fv=16 for wathen100/Dubcova2)\n\n");

  ResultCache cache(solves_cache_dir());
  refloat::util::CsvWriter csv(results_dir() + "/fig8.csv");
  csv.row({"solver", "matrix", "blocks", "gpu_seconds", "feinberg",
           "feinberg_fc", "refloat"});
  run_solver(SolverKind::kCg, cache, csv, {0.8362, 12.59});
  run_solver(SolverKind::kBicgstab, cache, csv, {1.036, 13.34});
  std::printf("Series written to results/fig8.csv\n");
  return 0;
}

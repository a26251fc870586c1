// Figure 10: robustness to RTN noise — iterations and speedup (vs GPU) of
// ReFloat on crystm03/CG as the conductance noise deviation sigma sweeps
// 0.1% .. 25%.
//
// Paper anchors: within 10% noise the speedup barely degrades; at 25%
// ReFloat still holds a 6.85x speedup (error correction disabled). The
// iterative solver absorbs the noise as extra iterations.
#include <cstdio>

#include "bench/harness.h"
#include "src/arch/cost.h"
#include "src/solvers/batched.h"
#include "src/util/table.h"

int main() {
  using namespace refloat::bench;
  using namespace refloat;
  std::printf("=== Figure 10: ReFloat iterations & speedup vs RTN noise "
              "(crystm03, CG) ===\n\n");

  const gen::SuiteSpec* spec = gen::find_spec(355);
  const MatrixBundle bundle = load_bundle(*spec);

  // GPU reference time from the double run.
  ResultCache cache(solves_cache_dir());
  const SolveRecord rec_double =
      run_solve(bundle, SolverKind::kCg, Platform::kDouble, cache);
  const arch::GpuModel gpu;
  const double gpu_seconds =
      arch::gpu_solve_seconds(gpu, bundle.a.nnz(), bundle.a.rows(),
                              rec_double.iterations, arch::cg_profile());

  util::CsvWriter csv(results_dir() + "/fig10.csv");
  csv.row({"sigma_percent", "iterations", "status", "speedup_vs_gpu"});
  util::Table table({"sigma", "iterations", "status", "speedup vs GPU"});

  const double sigmas[] = {0.001, 0.005, 0.01, 0.02, 0.05,
                           0.10,  0.15,  0.20, 0.25};
  for (double sigma : sigmas) {
    constexpr std::uint64_t kSeed = 355 + 7;  // the operator's seed too
    const auto backend = core::make_noisy_backend(bundle.rf, sigma, kSeed);
    solve::BackendMultiOperator op(*backend, 1, kSeed);
    solve::SolveOptions opts = evaluation_options();
    // Noise-free convergence takes ~125 iterations; 8000 is decisively NC
    // (the noisy residual can creep forever without converging).
    opts.max_iterations = 8000;
    const solve::SolveResult res =
        solve::cg_multi(op, bundle.b, 1, opts).columns[0];

    double speedup = 0.0;
    if (res.status == solve::SolveStatus::kConverged) {
      const double t =
          arch::accelerator_solve_time(arch::refloat_config(bundle.format),
                                       bundle.rf.nonzero_blocks(),
                                       bundle.a.rows(), res.iterations,
                                       arch::cg_profile())
              .total_seconds;
      speedup = gpu_seconds / t;
    }
    char sig[16];
    std::snprintf(sig, sizeof(sig), "%.1f%%", sigma * 100.0);
    table.add_row({sig, std::to_string(res.iterations),
                   solve::status_name(res.status),
                   speedup > 0.0 ? util::fmt_x(speedup, 2) : "-"});
    csv.row({util::fmt_g(sigma * 100.0, 3), std::to_string(res.iterations),
             solve::status_name(res.status), util::fmt_g(speedup, 4)});
  }
  table.print();
  std::printf("\nPaper anchors: noise-free speedup ~19.9x; <=10%% noise "
              "degrades little; 25%% noise still 6.85x.\n");
  std::printf("Series written to results/fig10.csv\n");
  return 0;
}

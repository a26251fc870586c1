// Extension: modeled solve energy per matrix and platform.
//
// The paper evaluates time only; the energy model (arch/energy.h, with
// documented per-op assumptions: 310 pJ/crossbar compute incl. ADC,
// 1.2 nJ/row write, 15 pJ/MAC) adds the efficiency dimension. Uses the
// solver iteration counts from the shared result cache (runs them if
// missing).
#include <cstdio>

#include "bench/harness.h"
#include "src/arch/cost.h"
#include "src/arch/energy.h"
#include "src/util/table.h"

int main() {
  using namespace refloat::bench;
  using namespace refloat;
  std::printf("=== Extension: modeled CG solve energy (Feinberg-fc vs "
              "ReFloat) ===\n\n");

  ResultCache cache(solves_cache_dir());
  const arch::EnergyModel energy;
  util::CsvWriter csv(results_dir() + "/energy.csv");
  csv.row({"matrix", "feinberg_mJ", "refloat_mJ", "ratio",
           "refloat_write_share"});
  util::Table table({"matrix", "Feinberg-fc (mJ)", "ReFloat (mJ)",
                     "Feinberg/ReFloat", "ReFloat write share"});

  for (const gen::SuiteSpec& spec : gen::suite()) {
    const MatrixBundle bundle = load_bundle(spec);
    const SolveRecord rd =
        run_solve(bundle, SolverKind::kCg, Platform::kDouble, cache);
    const SolveRecord rr =
        run_solve(bundle, SolverKind::kCg, Platform::kRefloat, cache);
    if (!rr.converged()) {
      table.add_row({spec.name, "-", "NC", "-", "-"});
      continue;
    }
    // Feinberg-fc uses double's iteration count (as in Fig. 8).
    const arch::SolveEnergy ef = arch::accelerator_solve_energy(
        arch::feinberg_config(), energy, bundle.rf.nonzero_blocks(),
        bundle.a.rows(), rd.iterations, arch::cg_profile());
    const arch::SolveEnergy er = arch::accelerator_solve_energy(
        arch::refloat_config(bundle.format), energy,
        bundle.rf.nonzero_blocks(), bundle.a.rows(), rr.iterations,
        arch::cg_profile());

    const double write_share =
        er.total_joules() > 0.0 ? er.write_joules / er.total_joules() : 0.0;
    table.add_row({spec.name, util::fmt_f(ef.total_joules() * 1e3, 2),
                   util::fmt_f(er.total_joules() * 1e3, 2),
                   util::fmt_x(ef.total_joules() / er.total_joules(), 1),
                   util::fmt_f(write_share * 100.0, 1) + "%"});
    csv.row({spec.name, util::fmt_g(ef.total_joules() * 1e3, 5),
             util::fmt_g(er.total_joules() * 1e3, 5),
             util::fmt_g(ef.total_joules() / er.total_joules(), 4),
             util::fmt_g(write_share, 4)});
  }
  table.print();
  std::printf("\nReFloat's per-pass advantage is Eq.(2)xEq.(3) ~ 84x fewer "
              "crossbar-cycles, partially repaid by extra\niterations; on "
              "multi-round matrices re-programming energy dominates "
              "(write-share column).\n");
  return 0;
}

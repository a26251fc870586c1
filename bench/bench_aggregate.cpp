// Aggregates the per-matrix ResultCache shards (data/results/<matrix>.csv,
// written concurrently by any number of bench processes) into one published
// table: results/all_solves.csv plus a console summary. The sweep driver
// (scripts/bench_sweep.sh) runs this once after launching the bench fleet.
#include <cstdio>

#include "bench/harness.h"
#include "src/util/table.h"

int main() {
  using namespace refloat::bench;
  using namespace refloat;
  const std::string dir = solves_cache_dir();
  const ResultCache cache(dir);
  std::printf("=== Aggregated solve records (%s) ===\n\n", dir.c_str());

  // The CSV keeps answers only, so two runs of one build compare byte for
  // byte; host wall time stays in the shards and the console table.
  util::CsvWriter csv(results_dir() + "/all_solves.csv");
  csv.row({"matrix", "solver", "platform", "iterations", "status",
           "final_residual", "true_residual"});
  util::Table table({"matrix", "solver", "platform", "iters", "status",
                     "final resid", "true resid", "host s"});

  std::size_t converged = 0;
  for (const auto& [key, rec] : cache.records()) {
    csv.row({rec.matrix, rec.solver, rec.platform,
             std::to_string(rec.iterations), rec.status,
             util::fmt_g(rec.final_residual, 6),
             util::fmt_g(rec.true_residual, 6)});
    table.add_row({rec.matrix, rec.solver, rec.platform,
                   util::fmt_i(rec.iterations), rec.status,
                   util::fmt_g(rec.final_residual, 3),
                   util::fmt_g(rec.true_residual, 3),
                   util::fmt_g(rec.wall_seconds, 3)});
    if (rec.converged()) ++converged;
  }
  table.print();
  std::printf("\n%zu records, %zu converged. Published to "
              "results/all_solves.csv\n",
              cache.records().size(), converged);
  return 0;
}

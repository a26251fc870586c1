// Batched multi-RHS amortization: modeled accelerator time for solving
// AX = B with k right-hand sides in lockstep (one SpMM pass per solver
// apply point) vs k independent solves. The reprogram/write cost of every
// non-resident round is charged once per batch, so the per-RHS time falls
// monotonically with k until compute dominates; resident matrices only
// amortize their one-time programming. Emits the EXPERIMENTS.md
// "reprogram amortization vs batch size" table, plus (a) a measured k-RHS
// sweep-throughput table through the three unified execution backends
// (bit-true both ideal and noisy with stuck-at faults) and
// (b) the modeled bit-true write-verify amortization table.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/harness.h"
#include "src/arch/cost.h"
#include "src/core/sweep_backend.h"
#include "src/gen/grid.h"
#include "src/hw/bit_true_backend.h"
#include "src/util/random.h"
#include "src/util/table.h"
#include "src/util/timer.h"

namespace {

// Measured: wall-clock per-RHS sweep cost through each core::SweepBackend
// at k = 1 vs k = 8 on a host-sized stand-in. The batched noisy kernel
// and HwSpmv::apply_multi share per-column traversal work (and, for
// bit-true, the programmed image), so per-RHS time drops with k even in
// pure software emulation.
void measured_backend_sweeps() {
  using namespace refloat;
  std::printf("\n=== Measured per-RHS sweep time through the unified "
              "backends (host emulation) ===\n\n");
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(32, 32)).shifted(0.15);
  core::Format fmt = core::default_format();
  fmt.b = 4;  // 16x16 blocks keep the bit-true emulation quick
  const core::RefloatMatrix rf(a, fmt);
  const std::size_t n = static_cast<std::size_t>(a.rows());
  constexpr std::size_t kWide = 8;
  constexpr int kReps = 20;

  struct Entry {
    const char* name;
    std::unique_ptr<core::SweepBackend> backend;
  };
  std::vector<Entry> entries;
  entries.push_back({"value", core::make_value_backend(rf)});
  entries.push_back({"noisy", core::make_noisy_backend(rf, 1e-3, 42)});
  entries.push_back(
      {"bittrue",
       std::make_unique<hw::BitTrueBackend>(rf, hw::ClusterConfig{})});
  // Stuck-at-1 cells occupy otherwise empty (plane, row) slices and every
  // nonzero sample draws noise, so this row bounds what the occupancy skip
  // saves on a degraded array.
  hw::ClusterConfig degraded;
  degraded.noise.sigma = 0.02;
  degraded.faults.stuck_at_zero_rate = 1e-2;
  degraded.faults.stuck_at_one_rate = 1e-2;
  entries.push_back(
      {"bittrue+noise+faults",
       std::make_unique<hw::BitTrueBackend>(rf, degraded)});

  // A random batch: read as k interleaved vectors (slot i*k + j), the
  // layout sweep() takes, at either k.
  std::vector<double> x(kWide * n);
  util::Rng rng(11);
  for (double& v : x) v = rng.gaussian();
  std::vector<double> y(kWide * n);

  // Wall-clock timings differ between runs, so they go under
  // results/timing/, apart from the answer series in results/*.csv.
  util::CsvWriter csv(bench::results_dir() + "/timing/backend_throughput.csv");
  csv.row({"backend", "k", "per_rhs_us", "batched_speedup"});
  util::Table table(
      {"backend", "per-RHS k=1 (us)", "per-RHS k=8 (us)", "batched speedup"});
  for (Entry& e : entries) {
    double per_rhs_us[2] = {0.0, 0.0};
    int slot = 0;
    for (const std::size_t k : {std::size_t{1}, kWide}) {
      util::Timer timer;
      for (int rep = 0; rep < kReps; ++rep) {
        e.backend->sweep(std::span<const double>(x).first(k * n), k,
                         std::span<double>(y).first(k * n), {});
      }
      per_rhs_us[slot++] =
          timer.seconds() * 1e6 / (kReps * static_cast<double>(k));
    }
    const double speedup = per_rhs_us[0] / per_rhs_us[1];
    csv.row({e.name, "1", util::fmt_f(per_rhs_us[0], 2), "1.00"});
    csv.row({e.name, "8", util::fmt_f(per_rhs_us[1], 2),
             util::fmt_f(speedup, 2)});
    table.add_row({e.name, util::fmt_f(per_rhs_us[0], 2),
                   util::fmt_f(per_rhs_us[1], 2), util::fmt_x(speedup, 2)});
  }
  table.print();
  std::printf("\nlaplace32x32 (n = %zu), b = 4, %d sweeps per cell; series "
              "in results/timing/backend_throughput.csv\n",
              n, kReps);
}

// Modeled: the bit-true path re-verifies every programmed row
// (write_verify_passes > 1), inflating the write term that batching
// amortizes — the acceptance stand-in for the >= 1.5x k=8 target.
void modeled_bit_true_amortization() {
  using namespace refloat;
  std::printf("\n=== Modeled bit-true write-verify amortization "
              "(write-bound stand-in) ===\n\n");
  arch::AcceleratorConfig config = arch::refloat_config(core::default_format());
  config.write_verify_passes = 3.0;
  const std::size_t blocks =
      static_cast<std::size_t>(arch::clusters(config)) * 4;
  const long long n = 1 << 16;
  constexpr long kIterations = 200;
  const arch::SolverProfile profile = arch::cg_profile();
  const arch::SolveTime t1 = arch::bit_true_batched_solve_time(
      config, blocks, n, kIterations, profile, 1);

  util::CsvWriter csv(bench::results_dir() + "/bit_true_amortization.csv");
  csv.row({"k", "per_rhs_seconds", "amortization_vs_k1"});
  util::Table table({"k", "per-RHS (modeled)", "amortization vs k=1"});
  for (const long k : {1L, 2L, 4L, 8L, 16L}) {
    const arch::SolveTime tk = arch::bit_true_batched_solve_time(
        config, blocks, n, kIterations, profile, k);
    const double ratio = t1.per_rhs_seconds / tk.per_rhs_seconds;
    csv.row({std::to_string(k), util::fmt_g(tk.per_rhs_seconds, 6),
             util::fmt_g(ratio, 4)});
    table.add_row({std::to_string(k), util::fmt_g(tk.per_rhs_seconds, 4),
                   util::fmt_x(ratio, 2)});
  }
  table.print();
  std::printf("\nblocks = %zu (4 reprogram rounds/pass), write-verify "
              "passes = %.0f, %ld-iteration CG; series in "
              "results/bit_true_amortization.csv\n",
              blocks, config.write_verify_passes, kIterations);
}

}  // namespace

int main() {
  using namespace refloat::bench;
  using namespace refloat;
  std::printf("=== Batched multi-RHS solves: modeled per-RHS speedup vs "
              "batch size k ===\n\n");

  // The amortization ratio is iteration-count-insensitive (every iteration
  // pays the same per-pass cost; only the one-time programming term scales
  // differently), so a fixed nominal CG length keeps this bench analytic —
  // no functional solves needed.
  constexpr long kIterations = 200;
  constexpr long kBatch[] = {1, 2, 4, 8, 16, 32};
  const arch::SolverProfile profile = arch::cg_profile();

  util::CsvWriter csv(results_dir() + "/batch_amortization.csv");
  csv.row({"matrix", "blocks", "rounds", "k", "per_rhs_seconds",
           "speedup_vs_k1"});
  util::Table table({"matrix", "blocks", "rounds", "x k=2", "x k=4", "x k=8",
                     "x k=16", "x k=32"});

  for (const gen::SuiteSpec& spec : gen::suite()) {
    const MatrixBundle bundle = load_bundle(spec);
    const arch::AcceleratorConfig config =
        arch::refloat_config(bundle.format);
    const arch::DeploymentCost cost =
        arch::deployment_cost(config, bundle.rf.nonzero_blocks());

    double per_rhs_k1 = 0.0;
    std::vector<std::string> cells = {spec.name,
                                      util::fmt_i(static_cast<long long>(
                                          bundle.rf.nonzero_blocks())),
                                      std::to_string(cost.rounds)};
    for (const long k : kBatch) {
      const arch::SolveTime time = arch::accelerator_batched_solve_time(
          config, bundle.rf.nonzero_blocks(), bundle.a.rows(), kIterations,
          profile, k);
      if (k == 1) per_rhs_k1 = time.per_rhs_seconds;
      const double speedup = per_rhs_k1 / time.per_rhs_seconds;
      csv.row({spec.name, std::to_string(bundle.rf.nonzero_blocks()),
               std::to_string(cost.rounds), std::to_string(k),
               util::fmt_g(time.per_rhs_seconds, 6),
               util::fmt_g(speedup, 4)});
      if (k > 1) cells.push_back(util::fmt_x(speedup, 2));
    }
    table.add_row(cells);
  }
  table.print();
  std::printf(
      "\nNotes: per-RHS modeled CG solve time (%ld iterations) for a\n"
      "lockstep batch of k right-hand sides, relative to k = 1. Matrices\n"
      "whose block count exceeds the chip's clusters reprogram in `rounds`\n",
      kIterations);
  std::printf(
      "passes; batching shares each round's writes across the batch, so\n"
      "scattered matrices (rounds > 1) gain the most. Resident matrices\n"
      "(rounds = 1) only amortize the one-time programming plus nothing\n"
      "per pass — their curve saturates at the compute bound.\n");
  std::printf("Series written to results/batch_amortization.csv\n");

  measured_backend_sweeps();
  modeled_bit_true_amortization();
  return 0;
}

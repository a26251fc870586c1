// Shared benchmark harness.
//
// Every bench binary reproduces one table/figure of the paper's evaluation
// (§VI). The expensive inputs — generated suite matrices and solver runs —
// are cached under the data directory ($REFLOAT_DATA_DIR or ./data):
//   data/<matrix>.csr                  generated matrix
//   data/results/<matrix>.csv          one row per (matrix, solver, platform)
//   results/<bench>.csv                the emitted series for re-plotting
// so the full bench sweep is idempotent: the first run computes, repeats
// reload. The on-disk formats are specified in docs/DATA_FORMATS.md.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "src/arch/config.h"
#include "src/arch/gpu_model.h"
#include "src/arch/timing.h"
#include "src/core/refloat_matrix.h"
#include "src/gen/suite.h"
#include "src/solvers/solver.h"

namespace refloat::bench {

enum class Platform { kDouble, kRefloat, kFeinberg };
enum class SolverKind { kCg, kBicgstab };

const char* platform_name(Platform platform);
const char* solver_name(SolverKind solver);

// A suite matrix plus everything the experiments derive from it.
struct MatrixBundle {
  const gen::SuiteSpec* spec = nullptr;
  sparse::Csr a;
  std::vector<double> b;
  core::Format format;        // Table VII format incl. fv override
  core::RefloatMatrix rf;     // `a` converted to `format` (128x128 blocks)
};

MatrixBundle load_bundle(const gen::SuiteSpec& spec);

// One functional solver run.
struct SolveRecord {
  std::string matrix;
  std::string solver;
  std::string platform;
  long iterations = 0;
  std::string status;        // solve::status_name
  double final_residual = 0.0;
  double true_residual = 0.0;
  double wall_seconds = 0.0;  // host simulation time (diagnostic only)

  [[nodiscard]] bool converged() const { return status == "converged"; }
};

// CSV-backed cache of solve records keyed by matrix/solver/platform,
// sharded one file per matrix (`<dir>/<matrix>.csv`). put() appends the row
// to the shard immediately under an exclusive flock — never a whole-file
// rewrite — so any number of concurrent bench binaries can share the cache
// without losing or interleaving rows. Readers take a shared flock and
// resolve duplicate keys last-row-wins. A legacy single-file
// `<dir>/solves.csv` (the pre-sharding layout) is imported read-only.
class ResultCache {
 public:
  // `dir` is the shard directory, conventionally solves_cache_dir().
  explicit ResultCache(const std::string& dir);

  std::optional<SolveRecord> get(const std::string& matrix,
                                 const std::string& solver,
                                 const std::string& platform) const;
  void put(const SolveRecord& record);

  // Every record the shard directory currently holds, keyed
  // "matrix|solver|platform" (duplicate rows already resolved
  // last-row-wins) — the aggregation view bench_aggregate publishes after a
  // parallel sweep.
  [[nodiscard]] const std::map<std::string, SolveRecord>& records() const {
    return records_;
  }

 private:
  std::string dir_;
  std::map<std::string, SolveRecord> records_;
};

// "data/results" — the ResultCache shard directory (created on demand).
std::string solves_cache_dir();

// Default solver options for the evaluation (tau = 1e-8, stall detection
// for the Feinberg stagnation cases).
solve::SolveOptions evaluation_options();

// Runs (or fetches) one solve. When trace_csv is non-empty and the solve
// executes, the residual trace is written there (one "iter,residual" row
// per iteration). Cache hits skip the run unless `need_trace` is set and
// the trace file is missing.
SolveRecord run_solve(const MatrixBundle& bundle, SolverKind solver,
                      Platform platform, ResultCache& cache,
                      const std::string& trace_csv = "",
                      bool need_trace = false);

// Modeled solver-time speedups vs the GPU baseline (Fig. 8's bars).
struct SpeedupRow {
  double gpu_seconds = 0.0;
  double feinberg_fc = 0.0;   // assumes double's iteration count
  double feinberg = 0.0;      // 0 when the functional run did not converge
  double refloat = 0.0;       // 0 when the functional run did not converge
};

SpeedupRow compute_speedups(const MatrixBundle& bundle, SolverKind solver,
                            const SolveRecord& rec_double,
                            const SolveRecord& rec_feinberg,
                            const SolveRecord& rec_refloat);

// Directory helpers.
std::string results_dir();  // "results" (created on demand)

}  // namespace refloat::bench

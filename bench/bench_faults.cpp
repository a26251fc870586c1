// Fault-tolerance evaluation: drives the serving daemon under deterministic
// sweep corruption at a range of site rates and reports how many requests
// the recovery ladder answers within their deadline, plus the ABFT
// checked-sweep overhead on a clean k = 8 value sweep. Emits the
// EXPERIMENTS.md "recovery under sweep corruption" table and
// results/fault_recovery.csv.
//
// Gate: at the 1e-3 site rate (the ISSUE's acceptance point) the daemon
// must recover >= 95% of requests within their deadline, else the binary
// prints FAIL and exits non-zero.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/core/refloat_matrix.h"
#include "src/core/sweep_backend.h"
#include "src/gen/grid.h"
#include "src/serve/daemon.h"
#include "src/util/fault_injector.h"
#include "src/util/random.h"
#include "src/util/table.h"

namespace {

using namespace refloat;

// Same mid-size SPD stand-in as bench_serve: the shifted Laplacian -> CG
// route, large enough that a solve spans many checked sweeps (so a 1e-3
// per-sweep-column fault rate actually bites) yet quick to retry.
sparse::Csr bench_matrix() {
  return gen::build_stencil(gen::laplace2d_5pt(48, 40)).shifted(0.15);
}

constexpr const char* kMatrixName = "laplace48x40";

struct RateRow {
  double rate = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t abft_failures = 0;
  std::uint64_t retries = 0;
  std::uint64_t recovered = 0;
  std::uint64_t degraded = 0;
  std::uint64_t shed = 0;

  [[nodiscard]] double recovery_pct() const {
    return submitted == 0 ? 0.0
                          : 100.0 * static_cast<double>(completed) /
                                static_cast<double>(submitted);
  }
};

RateRow run_rate(double rate, int clients, int requests_per_client) {
  util::FaultInjector& injector = util::FaultInjector::global();
  injector.disable_all();

  serve::ServeConfig config;
  config.max_batch = 8;
  config.batch_window_ms = 0.5;
  config.queue_capacity = 1024;
  serve::SolverDaemon daemon(config);
  daemon.register_matrix(kMatrixName, core::default_format(),
                         [] { return bench_matrix(); });
  // Warm the residency cache before arming the injector so every measured
  // request exercises the solve path, not the one-time build.
  {
    serve::SolveRequest warm;
    warm.matrix = kMatrixName;
    warm.rhs_seed = 1;
    warm.tolerance = 1e-6;
    warm.want_solution = false;
    daemon.submit(std::move(warm)).get();
  }

  if (rate > 0.0) {
    std::string error;
    const std::string spec = "sweep:" + std::to_string(rate) + ":7";
    if (!injector.configure_from_text(spec, &error)) {
      std::printf("FAIL: cannot arm injector \"%s\": %s\n", spec.c_str(),
                  error.c_str());
      std::exit(1);
    }
  }

  // "Recovered within deadline" is strict: the request must be answered
  // kOk with a converged solve before its deadline. A ladder that exhausts
  // its rungs still answers (kOk, corrupted) — that does NOT count.
  std::atomic<std::uint64_t> converged{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int r = 0; r < requests_per_client; ++r) {
        serve::SolveRequest request;
        request.matrix = kMatrixName;
        request.rhs_seed =
            static_cast<std::uint64_t>(c) * 1000u + static_cast<unsigned>(r);
        request.tolerance = 1e-6;
        request.want_solution = false;
        request.deadline = serve::Clock::now() + std::chrono::seconds(10);
        const serve::SolveResponse response =
            daemon.submit(std::move(request)).get();
        if (response.status == serve::ResponseStatus::kOk &&
            response.solve_status == solve::SolveStatus::kConverged) {
          converged.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  injector.disable_all();
  const serve::ServeStats stats = daemon.stats();
  daemon.shutdown();

  RateRow row;
  row.rate = rate;
  // Exclude the injector-free warm-up request from the tally.
  row.submitted = stats.submitted - 1;
  row.completed = converged.load();
  row.abft_failures = stats.abft_failures;
  row.retries = stats.retries;
  row.recovered = stats.recovered;
  row.degraded = stats.degraded;
  row.shed = stats.shed_deadline + stats.shed_queue_full;
  return row;
}

// Clean k = 8 value-sweep cost with and without the ABFT checked mode —
// the per-apply tax the daemon pays for per-column verdicts. The hard
// regression gate for this number lives in bench_micro's
// backend_sweep/value_checked series (bench_compare.py); here it is
// measured in-context and printed next to the recovery table.
double measure_checked_overhead_pct() {
  const sparse::Csr a = bench_matrix();
  const core::RefloatMatrix rf(a, core::default_format());
  const core::AbftChecksum abft = core::make_abft_checksum(rf);
  const std::size_t n = static_cast<std::size_t>(a.rows());
  constexpr std::size_t kRhs = 8;
  // A random batch of kRhs interleaved vectors (slot i*kRhs + j).
  util::Rng rng(29);
  std::vector<double> x(n * kRhs);
  for (double& v : x) v = rng.gaussian();
  std::vector<double> y(n * kRhs);

  const auto time_sweeps = [&](bool checked) {
    std::unique_ptr<core::SweepBackend> backend =
        core::make_value_backend(rf);
    core::SweepVerdict verdict;
    core::SweepContext ctx;
    if (checked) {
      backend->set_abft(&abft);
      ctx.verdict = &verdict;
    }
    constexpr int kWarm = 20;
    constexpr int kTimed = 200;
    for (int i = 0; i < kWarm; ++i) backend->sweep(x, kRhs, y, ctx);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kTimed; ++i) backend->sweep(x, kRhs, y, ctx);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count() / kTimed;
  };

  // Interleave A/B trials and keep each side's best time: on a shared
  // machine the minimum is the least-noisy estimate of the true cost.
  double plain = 1e300;
  double checked = 1e300;
  for (int trial = 0; trial < 5; ++trial) {
    plain = std::min(plain, time_sweeps(false));
    checked = std::min(checked, time_sweeps(true));
  }
  std::printf("clean k=8 value sweep: %.1f us plain, %.1f us checked\n",
              plain * 1e6, checked * 1e6);
  return 100.0 * (checked - plain) / plain;
}

int run() {
  std::printf("=== Recovery under deterministic sweep corruption ===\n\n");
  const int clients = 4;
  const int requests_per_client = 25;
  const double rates[] = {0.0, 1e-4, 1e-3, 1e-2};

  util::CsvWriter csv(bench::results_dir() + "/fault_recovery.csv");
  csv.row({"site_rate", "submitted", "completed", "recovery_pct",
           "abft_failures", "retries", "recovered", "degraded", "shed"});
  util::Table table({"site rate", "requests", "recovered in deadline",
                     "abft failures", "retries", "degraded", "shed"});
  double gate_pct = -1.0;
  for (const double rate : rates) {
    const RateRow row = run_rate(rate, clients, requests_per_client);
    if (rate == 1e-3) gate_pct = row.recovery_pct();
    // Above 1e-3 the recovery ladder's retries race each request's
    // deadline on wall time, so the row moves between runs of one build.
    // At any nonzero rate the ABFT failure and retry counts can move too:
    // which sweeps draw a fault follows batch composition, which follows
    // the client threads' timing. Only the recovery percentage of the
    // other rows holds.
    const bool races_deadlines = rate > 1e-3;
    csv.row({util::fmt_g(rate, 4), std::to_string(row.submitted),
             std::to_string(row.completed), util::fmt_f(row.recovery_pct(), 1),
             std::to_string(row.abft_failures), std::to_string(row.retries),
             std::to_string(row.recovered), std::to_string(row.degraded),
             std::to_string(row.shed)});
    table.add_row(
        {util::fmt_g(rate, 4) + (races_deadlines ? " *" : ""),
         std::to_string(row.submitted),
         util::fmt_f(row.recovery_pct(), 1) + "%",
         std::to_string(row.abft_failures), std::to_string(row.retries),
         std::to_string(row.degraded), std::to_string(row.shed)});
    std::printf("rate %g: %llu/%llu answered (%.1f%%), %llu ABFT failures, "
                "%llu retries, %llu degraded%s\n",
                rate, static_cast<unsigned long long>(row.completed),
                static_cast<unsigned long long>(row.submitted),
                row.recovery_pct(),
                static_cast<unsigned long long>(row.abft_failures),
                static_cast<unsigned long long>(row.retries),
                static_cast<unsigned long long>(row.degraded),
                races_deadlines ? " (races request deadlines on wall time: "
                                  "not comparable between runs)"
                                : "");
  }
  std::printf("\n");
  table.print();
  std::printf("* races request deadlines on wall time, so it is not "
              "comparable between runs. In the 0, 1e-4 and 1e-3 rows only "
              "the recovered-in-deadline share is: ABFT failure and retry "
              "counts follow batch composition, which follows the client "
              "threads' timing.\n");

  std::printf("\n=== ABFT checked-sweep overhead ===\n\n");
  const double overhead_pct = measure_checked_overhead_pct();
  std::printf("checked-mode overhead: %.1f%% (measured, not a target; "
              "regression-gated via bench_micro backend_sweep/value_checked; "
              "the ROADMAP's ABFT fusion is the open cut)\n",
              overhead_pct);

  std::printf("\nSeries written to results/fault_recovery.csv\n");
  if (gate_pct < 95.0) {
    std::printf("FAIL: recovery at 1e-3 sweep corruption %.1f%% < 95%%\n",
                gate_pct);
    return 1;
  }
  std::printf("recovery at 1e-3 sweep corruption %.1f%% (>= 95%% target)\n",
              gate_pct);
  return 0;
}

}  // namespace

int main() { return run(); }

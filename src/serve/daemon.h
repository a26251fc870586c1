// SolverDaemon: the request-driven serving front of the solver stack
// (ROADMAP item 1 — "the millions-of-users story end to end").
//
// Dataflow:  submit() -> bounded MPMC queue (admission control, shed on
// full) -> dispatch loop -> Batcher (deadline-bounded k-RHS batches per
// batch_key = matrix x backend x noise config) -> ResidencyCache (build
// RefloatMatrix + plans + the execution backend once per resident key;
// bit-true residents own their programmed crossbar image) ->
// solve::cg_multi / bicgstab_multi over a BackendMultiOperator
// (probe-routed, per-column tolerances and noise streams) -> per-request
// SolveResponse with a latency breakdown.
//
// Two drive modes:
//   * threaded (default): a dispatcher thread owns the batcher and sleeps
//     on the queue until the next window/deadline event;
//   * manual pump (config.manual_pump): no thread — tests call
//     pump(now) and control the clock, making window-expiry, deadline
//     shedding, and batching fully deterministic.
//
// Solves run on the dispatcher (or pumping) thread; parallelism lives
// inside the SpMV block-row shards as everywhere else in the repo, so a
// batch is bit-identical to its solo solves at any REFLOAT_THREADS.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/core/format.h"
#include "src/serve/batcher.h"
#include "src/serve/request.h"
#include "src/serve/residency_cache.h"
#include "src/sparse/csr.h"
#include "src/util/mpmc_queue.h"

namespace refloat::serve {

struct ServeConfig {
  std::size_t queue_capacity = 256;   // REFLOAT_SERVE_QUEUE
  std::size_t max_batch = 8;          // REFLOAT_SERVE_BATCH
  double batch_window_ms = 2.0;       // REFLOAT_SERVE_WINDOW_MS
  std::size_t cache_bytes = 256ull << 20;  // REFLOAT_SERVE_CACHE_MB
  long max_iterations = 10000;        // solver budget per request
  int tiles = 0;                      // 0 -> core::default_tile_count()
  bool manual_pump = false;           // tests: drive via pump(now)
  // ABFT checked sweeps: every resident backend carries a checksum row and
  // every operator apply is verified (REFLOAT_SERVE_ABFT=0 disables; the
  // recovery ladder then only sees divergence/stall/breakdown failures).
  bool abft = true;                   // REFLOAT_SERVE_ABFT
  // Recovery-ladder attempt budget per failed column; 0 disables retries
  // entirely (failures are answered as-is). Rungs: re-solve, then
  // reprogram (bit-true) or rebuild (persistent corruption), then degrade
  // one execution view per attempt (bittrue -> noisy -> value).
  int max_retries = 4;                // REFLOAT_SERVE_RETRIES

  // Reads the REFLOAT_SERVE_* overrides onto the defaults above (invalid
  // values warn and keep the default).
  static ServeConfig from_env();
};

// Aggregated serving counters plus the latency distribution, exported
// through stats() (and the TCP STATS verb).
struct ServeStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;       // answered kOk
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t failed = 0;          // unknown matrix / bad rhs / shutdown
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;  // sum of k over batches
  std::uint64_t max_batch_k = 0;
  // Fault-tolerance counters (the recovery ladder).
  std::uint64_t abft_failures = 0;   // solve attempts ended kCorrupted
  std::uint64_t retries = 0;         // ladder attempts run
  std::uint64_t recovered = 0;       // failed columns answered kConverged
  std::uint64_t degraded = 0;        // answers from a degraded view
  std::uint64_t reprograms = 0;      // bit-true crossbar reprogram rungs
  std::uint64_t rebuilds = 0;        // residency rebuild rungs
  double reprogram_seconds_sum = 0.0;  // modeled write-verify reprogram cost
  double queue_seconds_sum = 0.0;
  double build_seconds_sum = 0.0;
  double solve_seconds_sum = 0.0;
  double total_seconds_sum = 0.0;
  double p50_total_ms = 0.0;  // over completed requests
  double p99_total_ms = 0.0;
  ResidencyCache::CacheStats cache;

  [[nodiscard]] double mean_batch_k() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_requests) /
                              static_cast<double>(batches);
  }
};

class SolverDaemon {
 public:
  explicit SolverDaemon(ServeConfig config = {});
  ~SolverDaemon();
  SolverDaemon(const SolverDaemon&) = delete;
  SolverDaemon& operator=(const SolverDaemon&) = delete;

  // Registers a matrix the daemon can serve: `build` produces the exact
  // CSR (called at most once per residency; the cache amortizes it) and
  // `format` is the ReFloat format it quantizes into. Re-registering a
  // name replaces the builder (existing residents are dropped).
  void register_matrix(const std::string& name, const core::Format& format,
                       std::function<sparse::Csr()> build);

  // Registers the 12 Table V suite stand-ins under their suite names,
  // built through gen::load_or_build (disk-cached) in their Table VII
  // formats.
  void register_suite();

  // Admission: returns a future that is ALWAYS eventually fulfilled —
  // immediately with kShedQueueFull when the queue is full or kShutdown
  // after shutdown began; otherwise when the request's batch resolves.
  std::future<SolveResponse> submit(SolveRequest request);

  // Manual drive (config.manual_pump only): drains the queue into the
  // batcher and dispatches everything ready at `now`. Policy decisions
  // (window expiry, deadlines) use `now`; latency accounting uses the real
  // clock.
  void pump(TimePoint now);

  // Stops admission, flushes every pending request (queued requests still
  // solve; expired ones shed), and joins the dispatcher. Idempotent;
  // the destructor calls it.
  void shutdown();

  [[nodiscard]] ServeStats stats() const;

  [[nodiscard]] const ServeConfig& config() const { return config_; }

 private:
  struct Registration {
    core::Format format;
    std::function<sparse::Csr()> build;
  };

  void dispatch_loop();
  // One pump step: drain queue (stamping dequeue times), shed/dispatch
  // ready batches at `now`.
  void step(TimePoint now, bool force);
  void dispatch_batch(Batcher::ReadyBatch&& batch);
  void respond_shed(PendingRequest&& pending, ResponseStatus status);
  void record_completion(const SolveResponse& response);

  // One failed column's walk down the recovery ladder (daemon.cc "Recovery
  // ladder" comment block for the rung order).
  struct Recovery {
    solve::SolveResult column;  // the answer to report (possibly original)
    int retries = 0;            // ladder attempts consumed
    bool degraded = false;      // answered from a lower execution view
    core::BackendKind final_kind = core::BackendKind::kValue;
    bool shed = false;          // deadline could not fit another attempt
    int reprograms = 0;         // crossbar reprogram rungs taken
    int rebuilds = 0;           // residency rebuild rungs taken
    int abft_failures = 0;      // retry attempts that ended kCorrupted
    double reprogram_seconds = 0.0;  // modeled write-verify reprogram cost
  };
  Recovery recover_column(const std::string& key,
                          ResidencyCache::EntryPtr& entry,
                          const ResidencyCache::Builder& rebuild,
                          core::BackendKind kind, double sigma,
                          std::span<const double> b_col, double tolerance,
                          std::uint64_t noise_seed, TimePoint deadline,
                          const solve::SolveOptions& options,
                          solve::SolveResult&& failed,
                          double attempt_estimate_seconds);

  ServeConfig config_;
  util::BoundedQueue<PendingRequest> queue_;
  Batcher batcher_;  // dispatcher/pump thread only
  ResidencyCache cache_;

  mutable std::mutex registry_mutex_;
  std::map<std::string, Registration> registry_;

  mutable std::mutex stats_mutex_;
  ServeStats stats_;
  std::vector<double> total_ms_reservoir_;  // completed-request latencies

  bool stopped_ = false;  // guarded by stats_mutex_ (rarely touched)
  std::thread dispatcher_;
};

// The deterministic server-side right-hand side for requests that carry a
// seed instead of a vector: Gaussian, scaled to ||b|| = 1, keyed by
// (dimension, seed) — the same (matrix, seed) request always solves the
// same system, so repeated TCP requests hit bit-identical trajectories.
std::vector<double> seeded_rhs(std::size_t n, std::uint64_t seed);

}  // namespace refloat::serve

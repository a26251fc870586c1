// SolverDaemon: the request-driven serving front of the solver stack
// (ROADMAP item 1 — "the millions-of-users story end to end").
//
// Dataflow:  submit() -> Batcher (admission control: shed once
// queue_capacity requests wait to solve; deadline-bounded k-RHS batches
// per batch_key = matrix x backend x noise config) -> ResidencyCache
// (build_resident once per resident key: RefloatMatrix + tile partition +
// the execution backend; bit-true residents own their programmed crossbar
// image) -> solve::cg_multi / bicgstab_multi over a BackendMultiOperator
// (probe-routed, per-column tolerances and noise streams) -> per-request
// SolveResponse with a latency breakdown.
//
// Two drive modes:
//   * threaded (default): submit() admits each request straight into the
//     batcher, and solve_worker_count() solve workers take the ready
//     batches from it. A worker never takes a batch whose key is already
//     solving: that group stays in the batcher, filling toward max_batch
//     and shedding expired members, until the key frees. So each
//     resident's backend (its sweep scratch, the reprogram and rebuild
//     rungs) has one owner at a time, while batches of distinct keys solve
//     concurrently, as the crossbars of two programmed matrices would. With
//     one worker (the default pool) batches run one after another;
//   * manual pump (config.manual_pump): no thread — submit() holds requests
//     in an inbox, and tests call pump(now) and control the clock, making
//     window-expiry, deadline shedding, and batching fully deterministic.
//     Batches solve inline on the pumping thread.
//
// Within a batch, parallelism lives inside the SpMV block-row shards as
// everywhere else in the repo, and every column is bit-identical to its
// solo solve, so an answer does not depend on REFLOAT_THREADS, on the
// worker that ran it, or on what else was solving.
//
// Process-wide side effect: a threaded daemon calls glibc's
// mallopt(M_ARENA_MAX, 1) before its threads start. That caps the whole
// process — every thread, for its whole life — at one malloc arena; it is
// not undone when the daemon is destroyed. Per-thread arenas each kept a
// high-water mark of k x n solver vectors and grew the daemon's peak RSS
// by 38-97% with four workers (docs/ARCHITECTURE.md "Solve workers"). A
// manual-pump daemon starts no thread and leaves the allocator alone.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/core/format.h"
#include "src/serve/batcher.h"
#include "src/serve/request.h"
#include "src/serve/residency_cache.h"
#include "src/sparse/csr.h"

namespace refloat::serve {

struct ServeConfig {
  std::size_t queue_capacity = 256;   // requests admitted, not yet solving;
                                      // past it submit() sheds
  std::size_t max_batch = 8;          // requests per lockstep batch
  double batch_window_ms = 2.0;       // deadlines can dispatch earlier
  std::size_t cache_bytes = 256ull << 20;  // residency-cache byte budget
  long max_iterations = 10000;        // solver budget per request
  int tiles = 1;                      // modeled ReRAM tiles per resident
  bool manual_pump = false;           // tests: drive via pump(now)
  // ABFT checked sweeps: every resident backend carries a checksum row and
  // every operator apply is verified (false: the recovery ladder then only
  // sees divergence/stall/breakdown failures).
  bool abft = true;
  // Recovery-ladder attempt budget per failed column; 0 disables retries
  // entirely (failures are answered as-is). Rungs: see next_rung().
  int max_retries = 4;
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
  double p50_total_ms = 0.0;  // over completed requests
  double p99_total_ms = 0.0;
  // Threads that solve batches (manual pump: the pumping thread).
  std::size_t solve_workers = 1;
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
  // immediately with kShedQueueFull when queue_capacity requests wait to
  // solve or kShutdown after shutdown began; otherwise when the request's
  // batch resolves.
  std::future<SolveResponse> submit(SolveRequest request);

  // Manual drive (config.manual_pump only): drains the inbox into the
  // batcher and dispatches everything ready at `now`. Policy decisions
  // (window expiry, deadlines) use `now`; latency accounting uses the real
  // clock.
  void pump(TimePoint now);

  // Stops admission, flushes every pending request (admitted requests
  // still solve; expired ones shed), and joins the solve workers.
  // Idempotent; the destructor calls it.
  void shutdown();

  [[nodiscard]] ServeStats stats() const;

  [[nodiscard]] const ServeConfig& config() const { return config_; }

 private:
  struct Registration {
    core::Format format;
    std::function<sparse::Csr()> build;
  };

  // Threaded mode: each solve worker takes ready batches of keys not
  // already solving.
  void solve_loop();
  void dispatch_batch(Batcher::ReadyBatch&& batch);
  void respond_shed(PendingRequest&& pending, ResponseStatus status);

  // One column's outcome: the batch answer, or a failed column's walk down
  // the recovery ladder (recover_column; rung order in next_rung()).
  struct Recovery {
    solve::SolveResult column;  // the answer to report
    core::BackendKind view = core::BackendKind::kValue;  // view that answered
    int retries = 0;            // ladder attempts consumed
    bool shed = false;          // deadline could not fit another attempt
    int reprograms = 0;         // crossbar reprogram rungs taken
    int rebuilds = 0;           // residency rebuild rungs taken
    int abft_failures = 0;      // solve attempts that ended kCorrupted
  };
  void recover_column(Recovery& rec, const std::string& key,
                      ResidencyCache::EntryPtr& entry,
                      const ResidencyCache::Builder& rebuild,
                      core::BackendKind served, double sigma,
                      std::span<const double> b_col, double tolerance,
                      std::uint64_t noise_seed, TimePoint deadline,
                      const solve::SolveOptions& options,
                      double attempt_estimate_seconds);

  ServeConfig config_;
  ResidencyCache cache_;

  mutable std::mutex registry_mutex_;
  std::map<std::string, Registration> registry_;

  mutable std::mutex stats_mutex_;
  ServeStats stats_;
  std::vector<double> total_ms_reservoir_;  // completed-request latencies

  // Admission state, guarded by work_mutex_; every change is signalled on
  // work_cv_. Manual mode holds requests in inbox_ until pump(now) adds
  // them to the batcher at `now`; threaded mode adds them at submit().
  std::mutex work_mutex_;
  std::condition_variable work_cv_;
  std::vector<PendingRequest> inbox_;
  Batcher batcher_;
  std::set<std::string> solving_;  // keys on a solve worker
  bool closed_ = false;            // shutdown() began

  std::vector<std::thread> workers_;
};

// Solve workers for a threaded daemon: one per ThreadPool-sized share of
// the machine's cores, hardware_concurrency / pool_threads, at least one.
// A pool that already spans the machine leaves one worker, which solves
// one batch at a time as its shards fan out over the pool; a one-thread
// pool gives every core a batch of its own.
int solve_worker_count(unsigned hardware_concurrency, int pool_threads);

// The deterministic server-side right-hand side for requests that carry a
// seed instead of a vector: Gaussian, scaled to ||b|| = 1, keyed by
// (dimension, seed) — the same (matrix, seed) request always solves the
// same system, so repeated TCP requests hit bit-identical trajectories.
std::vector<double> seeded_rhs(std::size_t n, std::uint64_t seed);

// Builds one resident from the exact CSR: the ReFloat conversion, the ABFT
// checksum of the clean operand (when `abft`), the definiteness probe, the
// `plan:` fault site, the tile partition (`tiles` > 1), the `kind` backend
// (noise `sigma`) and the byte accounting the cache budgets.
std::shared_ptr<ResidentEntry> build_resident(const sparse::Csr& a,
                                              const core::Format& format,
                                              core::BackendKind kind,
                                              double sigma, int tiles,
                                              bool abft);

// The recovery ladder's rungs. Each attempt after the first changes one
// thing before the column is solved again.
enum class Rung {
  kResolve,    // solve again on the same backend
  kReprogram,  // bit-true: re-image the crossbars under a fresh fault seed
  kRebuild,    // evict the resident and build it again
  kDegrade,    // answer from the next lower view (bittrue -> noisy -> value)
  kStop,       // no rung left: answer as-is
};

// The rung for ladder attempt `attempt` (1-based) of a column served on
// `served`, now on `view`, whose last attempt ended `last_status`:
//   1. attempt 1 re-solves;
//   2. bit-true, not yet reprogrammed and not degraded: reprogram;
//   3. corrupted, not yet rebuilt and not degraded: rebuild — corruption
//      that survived the re-solve (and a reprogram, which re-images from
//      the same resident operand) means the resident itself is damaged;
//   4. degrade one view, until value, where the ladder stops.
// Pure: the caller performs the rung and tracks the state.
Rung next_rung(core::BackendKind served, core::BackendKind view,
               bool reprogrammed, bool rebuilt, int attempt,
               solve::SolveStatus last_status);

}  // namespace refloat::serve

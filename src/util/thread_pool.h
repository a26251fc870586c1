// A small reusable fork-join thread pool for the SpMV hot paths.
//
// Design constraints (docs/ARCHITECTURE.md "Parallelism"):
//   * one process-wide pool, sized by $REFLOAT_THREADS (default: hardware
//     concurrency) — callers never spawn ad-hoc threads. The one exception
//     is serve::SolverDaemon's solve workers: a fork-join pool splits one
//     sweep, but the daemon needs whole batches of distinct matrices to
//     run side by side, and it sizes them to the cores the pool leaves
//     idle (serve::solve_worker_count);
//   * parallel_for(n, fn) runs fn(0..n-1) across the workers plus the
//     calling thread and blocks until every index completed. Indices are
//     claimed dynamically (atomic counter), so shards must be independent:
//     callers get determinism by making each index own a disjoint output
//     range, not by relying on scheduling order;
//   * re-entrant parallel_for calls (fn itself calling parallel_for) run
//     inline on the current thread instead of deadlocking;
//   * fn must not throw — an escaping exception terminates the process;
//   * $REFLOAT_AFFINITY=compact|spread pins workers to cores (Linux) so
//     SpMV shards stop migrating mid-sweep and dragging their cached arena
//     spans across L2s. compact packs workers onto the lowest core ids
//     (shared caches, small working sets); spread strides them across the
//     core range (maximum aggregate bandwidth). Default: off. The calling
//     thread keeps its OS placement — the pool never pins a thread it does
//     not own.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace refloat::util {

class ThreadPool {
 public:
  // `threads` is the total parallelism including the calling thread;
  // values < 1 are clamped to 1 (1 = fully inline, no workers).
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total parallelism (workers + the calling thread).
  [[nodiscard]] int size() const {
    return static_cast<int>(workers_.size()) + 1;
  }

  // Runs fn(i) for every i in [0, n), blocking until all complete.
  // Concurrent parallel_for calls from different threads serialize.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  // The process-wide pool, created on first use with default_threads().
  static ThreadPool& global();

  // $REFLOAT_THREADS when set to a positive integer, else
  // std::thread::hardware_concurrency() (min 1).
  static int default_threads();

  // Hard ceiling on the parsed pool size: beyond this, more fork-join
  // workers only add wakeup latency (shards are claimed dynamically), so
  // larger requests clamp with a warning instead of spawning them.
  static constexpr int kMaxThreads = 512;

  // Parses a $REFLOAT_THREADS value. nullptr/empty (unset) returns 0 —
  // "use the hardware default". Garbage and values < 1 clamp to 1 (a set
  // variable must never mean full concurrency), values above kMaxThreads
  // clamp down; every clamp warns once per call and sets *warned when
  // provided. Exposed so tests can pin the parsing table directly.
  static int parse_threads(const char* text, bool* warned = nullptr);

  // Parses a $REFLOAT_AFFINITY value into its canonical mode name:
  // "compact", "spread", or "off". nullptr/empty is off silently;
  // unrecognized non-empty values warn (and set *warned) and fall back to
  // off rather than silently dropping a typo'd pinning request.
  static const char* parse_affinity(const char* text, bool* warned = nullptr);

  // Replaces the global pool (tests and benches sweeping thread counts).
  // Must not race in-flight parallel work.
  static void set_global_threads(int threads);

  // The affinity policy parsed from $REFLOAT_AFFINITY: "compact", "spread",
  // or "off" (anything unset/unrecognized). For bench self-description.
  static const char* affinity_mode_name();

 private:
  void worker_loop();
  void run_span(const std::function<void(std::size_t)>& fn, std::size_t n);

  std::vector<std::thread> workers_;
  std::mutex run_mutex_;  // serializes concurrent parallel_for callers

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_size_ = 0;
  std::atomic<std::size_t> next_index_{0};
  std::size_t workers_running_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace refloat::util

// The layer replay behind bench_e2e's answer checks and its traced run.
//
// The replay rebuilds what a daemon residency build makes and re-runs
// each batch through the library's public layer functions, with a
// span around every call: gen::load_or_build, the RefloatMatrix
// constructor, the backend constructor, make_abft_checksum,
// probe_definiteness, the lockstep solve, and every sweep (through
// TimedBackend). Spans are recorded from the bench's own files; the library
// carries no instrumentation.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/e2e/workloads.h"
#include "src/core/sweep_backend.h"
#include "src/serve/residency_cache.h"
#include "src/solvers/batched.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

// Group id of spans that serve set-up (a key's first build when the daemon
// answered every request of that key from its cache), not a replayed batch.
inline constexpr std::size_t kSetupGroup = static_cast<std::size_t>(-1);

// One layer call. Names are "<layer>.<step>", e.g. "gen.load",
// "core.sweep.value", "hw.sweep.bittrue", "solvers.solve".
struct Span {
  const char* name = "";
  double start_s = 0.0;  // since the run epoch
  double wall_s = 0.0;
  double cpu_s = 0.0;    // the calling thread's CPU time
  std::size_t group = kSetupGroup;  // replayed batch the call served
  std::size_t k = 0;                // columns swept (sweeps and solves)
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  [[nodiscard]] double since_epoch(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }
  void add(const Span& span) { spans_.push_back(span); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// Records one span covering its own lifetime.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::size_t group,
             std::size_t k = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  Span span_;
  Clock::time_point start_;
  double cpu_start_;
};

// Forwards every sweep to `inner` inside a span; mirrors inner's ABFT
// attachment so BackendMultiOperator consults the checked verdict exactly
// as it does for the inner backend alone.
class TimedBackend final : public refloat::core::SweepBackend {
 public:
  TimedBackend(refloat::core::SweepBackend& inner, SpanLog& log,
               std::size_t group);

  [[nodiscard]] std::size_t rows() const override { return inner_.rows(); }
  [[nodiscard]] std::size_t cols() const override { return inner_.cols(); }
  [[nodiscard]] refloat::core::BackendKind kind() const override {
    return inner_.kind();
  }
  [[nodiscard]] const char* label() const override { return inner_.label(); }
  void sweep(std::span<const double> x, std::size_t k, std::span<double> y,
             const refloat::core::SweepContext& ctx) override;

 private:
  refloat::core::SweepBackend& inner_;
  SpanLog& log_;
  std::size_t group_;
  const char* name_;
};

// Builds `job`'s resident entry the way SolverDaemon's residency build
// does, with tiles = 1 and no fault injection: load, convert, backend,
// checksum (when `abft`), probe — one span per step, attributed to `group`.
std::unique_ptr<refloat::serve::ResidentEntry> build_entry(
    const MatrixDef& def, const std::string& data_dir, const Job& job,
    bool abft, SpanLog& log, std::size_t group);

// Re-runs one batch as the daemon dispatches it: k column-major right-hand
// sides with per-column tolerances and noise seeds, CG or BiCGSTAB by the
// probe verdict, through a BackendMultiOperator over a TimedBackend.
refloat::solve::BatchedSolveResult replay_batch(
    const refloat::serve::ResidentEntry& entry, std::span<const double> b,
    std::size_t k,
    std::span<const double> tolerances, std::vector<std::uint64_t> noise_seeds,
    long max_iterations, SpanLog& log, std::size_t group);

// Index of the first element whose bit pattern differs, the shorter length
// when only the lengths differ, or -1 when the two are bit-identical.
long first_bit_mismatch(std::span<const double> a, std::span<const double> b);

// Shows the checker works: an identical copy passes, and a copy with one
// element moved by one ULP is rejected. False when either check misfires.
bool checker_self_test();

}  // namespace e2e

#include "bench/e2e/replay.h"

#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/hw/bit_true_backend.h"

namespace e2e {

namespace rf = refloat;

namespace {

// The daemon's ABFT tolerance per execution view (serve/daemon.cc). A
// checked sweep never changes Y, but the verdict decides whether a column
// is finalized as corrupted, so the replay must judge with the same bound.
double abft_tolerance(rf::core::BackendKind kind, double sigma) {
  switch (kind) {
    case rf::core::BackendKind::kValue: return 1e-6;
    case rf::core::BackendKind::kNoisy: return std::max(1e-6, 32.0 * sigma);
    case rf::core::BackendKind::kBitTrue: return 1e-3;
  }
  return 1e-6;
}

const char* sweep_span_name(rf::core::BackendKind kind) {
  switch (kind) {
    case rf::core::BackendKind::kValue: return "core.sweep.value";
    case rf::core::BackendKind::kNoisy: return "core.sweep.noisy";
    case rf::core::BackendKind::kBitTrue: return "hw.sweep.bittrue";
  }
  return "core.sweep";
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

ScopedSpan::ScopedSpan(SpanLog& log, const char* name, std::size_t group,
                       std::size_t k)
    : log_(log),
      span_{.name = name, .group = group, .k = k},
      start_(Clock::now()),
      cpu_start_(thread_cpu_seconds()) {}

ScopedSpan::~ScopedSpan() {
  const Clock::time_point end = Clock::now();
  span_.start_s = log_.since_epoch(start_);
  span_.wall_s = std::chrono::duration<double>(end - start_).count();
  span_.cpu_s = thread_cpu_seconds() - cpu_start_;
  log_.add(span_);
}

TimedBackend::TimedBackend(rf::core::SweepBackend& inner, SpanLog& log,
                           std::size_t group)
    : inner_(inner),
      log_(log),
      group_(group),
      name_(sweep_span_name(inner.kind())) {
  set_abft(inner.abft());
}

void TimedBackend::sweep(std::span<const double> x, std::size_t k,
                         std::span<double> y,
                         const rf::core::SweepContext& ctx) {
  ScopedSpan span(log_, name_, group_, k);
  inner_.sweep(x, k, y, ctx);
}

std::unique_ptr<rf::serve::ResidentEntry> build_entry(
    const MatrixDef& def, const std::string& data_dir, const Job& job,
    bool abft, SpanLog& log, std::size_t group) {
  rf::sparse::Csr a;
  {
    ScopedSpan span(log, "gen.load", group);
    a = load_matrix(def, data_dir);
  }
  std::unique_ptr<rf::serve::ResidentEntry> entry;
  {
    ScopedSpan span(log, "core.convert", group);
    entry = std::make_unique<rf::serve::ResidentEntry>(
        rf::core::RefloatMatrix(a, def.format));
  }
  // The backend borrows entry->rf, which has reached its final address.
  const rf::core::TiledPlan* untiled = nullptr;
  std::size_t backend_bytes = 0;
  switch (job.backend) {
    case rf::core::BackendKind::kValue: {
      ScopedSpan span(log, "core.backend", group);
      entry->backend = rf::core::make_value_backend(entry->rf, untiled);
      break;
    }
    case rf::core::BackendKind::kNoisy: {
      ScopedSpan span(log, "core.backend", group);
      entry->backend = rf::core::make_noisy_backend(entry->rf, job.sigma,
                                                    /*seed=*/0, untiled);
      break;
    }
    case rf::core::BackendKind::kBitTrue: {
      ScopedSpan span(log, "hw.program", group);
      auto bt = std::make_unique<rf::hw::BitTrueBackend>(
          entry->rf, rf::hw::ClusterConfig{});
      backend_bytes = bt->hw().resident_bytes();
      entry->backend = std::move(bt);
      break;
    }
  }
  if (abft) {
    ScopedSpan span(log, "core.checksum", group);
    entry->abft = rf::core::make_abft_checksum(
        entry->rf, abft_tolerance(job.backend, job.sigma));
    entry->backend->set_abft(&entry->abft);
  }
  if (entry->rf.quantized().rows() == entry->rf.quantized().cols()) {
    ScopedSpan span(log, "core.probe", group);
    entry->indefinite = entry->rf.probe_definiteness().likely_indefinite();
  }
  entry->bytes = entry->rf.resident_bytes() + backend_bytes;
  return entry;
}

rf::solve::BatchedSolveResult replay_batch(
    const rf::serve::ResidentEntry& entry, std::span<const double> b,
    std::size_t k,
    std::span<const double> tolerances, std::vector<std::uint64_t> noise_seeds,
    long max_iterations, SpanLog& log, std::size_t group) {
  // The daemon's per-batch options (SolverDaemon::dispatch_batch).
  rf::solve::SolveOptions options;
  options.max_iterations = max_iterations;
  options.record_trace = false;
  TimedBackend timed(*entry.backend, log, group);
  rf::solve::BackendMultiOperator op(timed, std::move(noise_seeds));
  ScopedSpan span(log, "solvers.solve", group, k);
  return entry.indefinite
             ? rf::solve::bicgstab_multi(op, b, k, options, tolerances)
             : rf::solve::cg_multi(op, b, k, options, tolerances);
}

long first_bit_mismatch(std::span<const double> a,
                        std::span<const double> b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return static_cast<long>(i);
    }
  }
  return a.size() == b.size() ? -1 : static_cast<long>(n);
}

bool checker_self_test() {
  std::vector<double> answer(64);
  for (std::size_t i = 0; i < answer.size(); ++i) {
    answer[i] = std::sin(static_cast<double>(i) + 0.5);
  }
  std::vector<double> flipped = answer;
  flipped[37] = std::nextafter(flipped[37], INFINITY);
  return first_bit_mismatch(answer, answer) == -1 &&
         first_bit_mismatch(answer, flipped) == 37;
}

}  // namespace e2e

#include "src/serve/daemon.h"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <variant>

#include "src/gen/suite.h"
#include "src/hw/bit_true_backend.h"
#include "src/solvers/batched.h"
#include "src/sparse/vector_ops.h"
#include "src/util/fault_injector.h"
#include "src/util/log.h"
#include "src/util/random.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace refloat::serve {

namespace {

Duration window_duration(double ms) {
  return std::chrono::duration_cast<Duration>(
      std::chrono::duration<double, std::milli>(ms));
}

const char* solver_name_of(bool indefinite) {
  return indefinite ? "bicgstab" : "cg";
}

// ABFT relative tolerance per execution view. Value sweeps only carry FP
// summation rounding; noisy sweeps scatter each output by ~sigma per
// contributing term; bit-true sweeps additionally quantize the operand
// vector (the checksum is verified against the raw x), so the bound is the
// loosest. A corruption flips an exponent bit or plants a NaN — orders of
// magnitude outside all three bounds.
double abft_tolerance(core::BackendKind kind, double sigma) {
  switch (kind) {
    case core::BackendKind::kValue: return 1e-6;
    case core::BackendKind::kNoisy: return std::max(1e-6, 32.0 * sigma);
    case core::BackendKind::kBitTrue: return 1e-3;
  }
  return 1e-6;
}

// The one place a serving backend is constructed: the `kind` view over the
// resident's operand and tile partition, which it borrows (the shared entry
// pins their addresses).
std::unique_ptr<core::SweepBackend> make_view(const ResidentEntry& entry,
                                              core::BackendKind kind,
                                              double sigma) {
  const core::TiledPlan* tp = entry.tiled.empty() ? nullptr : &entry.tiled;
  switch (kind) {
    case core::BackendKind::kValue:
      return core::make_value_backend(entry.rf, tp);
    case core::BackendKind::kNoisy:
      // The constructor seed is the empty-context fallback only; serving
      // always passes each request's own noise_seed through the
      // SweepContext, so 0 is never consumed.
      return core::make_noisy_backend(entry.rf, sigma, /*seed=*/0, tp);
    case core::BackendKind::kBitTrue:
      // Default ClusterConfig = the ideal datapath (no faults, no
      // conductance noise): bit-true serving is deterministic and the
      // programmed image is built once per residency — the expensive step
      // the residency cache exists to amortize.
      return std::make_unique<hw::BitTrueBackend>(
          entry.rf, hw::ClusterConfig{}, hw::kDefaultNoiseSeed, tp);
  }
  return nullptr;
}

// Bounds the latency reservoir: a long-lived daemon must not grow an
// unbounded vector of every latency ever observed.
constexpr std::size_t kMaxReservoir = 1u << 20;

}  // namespace

const char* response_status_name(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kShedQueueFull: return "shed_queue_full";
    case ResponseStatus::kShedDeadline: return "shed_deadline";
    case ResponseStatus::kUnknownMatrix: return "unknown_matrix";
    case ResponseStatus::kBadRequest: return "bad_request";
    case ResponseStatus::kShutdown: return "shutdown";
  }
  return "?";
}

std::vector<double> seeded_rhs(std::size_t n, std::uint64_t seed) {
  std::vector<double> b(n, 0.0);
  util::Rng rng(util::stream_seed(0x5e7f10a7u, seed, n));
  for (double& v : b) v = rng.gaussian();
  const double norm = sparse::norm2(b);
  if (norm > 0.0) {
    for (double& v : b) v /= norm;
  }
  return b;
}

std::shared_ptr<ResidentEntry> build_resident(const sparse::Csr& a,
                                              const core::Format& format,
                                              core::BackendKind kind,
                                              double sigma, int tiles,
                                              bool abft) {
  auto built = std::make_shared<ResidentEntry>(core::RefloatMatrix(a, format));
  // The ABFT checksum and the definiteness probe read the clean quantized
  // operand, before any injected corruption below.
  if (abft) {
    built->abft =
        core::make_abft_checksum(built->rf, abft_tolerance(kind, sigma));
  }
  if (built->rf.quantized().rows() == built->rf.quantized().cols()) {
    built->indefinite = built->rf.probe_definiteness().likely_indefinite();
  }
  // Injected plan corruption (the `plan:` fault site): silently damages the
  // resident operand — one stored value code of the packed dequantized
  // operand, which value and noisy backends sweep and from which a bit-true
  // backend programs its crossbars below. Checked sweeps flag it on the
  // first apply against the checksum taken above.
  util::FaultInjector& inj = util::FaultInjector::global();
  if (inj.armed(util::FaultSite::kPlanBuild)) {
    std::visit(
        [&inj](auto codes) {
          inj.maybe_corrupt(util::FaultSite::kPlanBuild, codes);
        },
        built->rf.mutable_quantized_codes());
  }
  if (tiles > 1 && built->rf.nonzero_blocks() > 0) {
    built->tiled = core::TiledPlan::partition(built->rf, tiles);
  }
  built->backend = make_view(*built, kind, sigma);
  if (abft) built->backend->set_abft(&built->abft);
  built->bytes = built->rf.resident_bytes() + built->tiled.index_bytes() +
                 built->backend->resident_bytes();
  return built;
}

Rung next_rung(core::BackendKind served, core::BackendKind view,
               bool reprogrammed, bool rebuilt, int attempt,
               solve::SolveStatus last_status) {
  if (attempt <= 1) return Rung::kResolve;
  const bool degraded = view != served;
  if (served == core::BackendKind::kBitTrue && !reprogrammed && !degraded) {
    return Rung::kReprogram;
  }
  if (last_status == solve::SolveStatus::kCorrupted && !rebuilt &&
      !degraded) {
    return Rung::kRebuild;
  }
  return view == core::BackendKind::kValue ? Rung::kStop : Rung::kDegrade;
}

int solve_worker_count(unsigned hardware_concurrency, int pool_threads) {
  const unsigned pool = static_cast<unsigned>(std::max(pool_threads, 1));
  return std::max(1, static_cast<int>(hardware_concurrency / pool));
}

SolverDaemon::SolverDaemon(ServeConfig config)
    : config_(config),
      cache_(config.cache_bytes),
      batcher_(config.max_batch, window_duration(config.batch_window_ms)) {
  if (config_.manual_pump) return;
  const int workers = solve_worker_count(std::thread::hardware_concurrency(),
                                         util::ThreadPool::global().size());
#ifdef __GLIBC__
  // glibc gives each thread that allocates its own malloc arena, and each
  // arena keeps its high-water mark of k x n solver vectors (and the noisy
  // sweep's per-thread band scratch). On a 4-vCPU host bench_e2e's peak
  // RSS grew 38-97% with four workers over a daemon that solved on one
  // thread; one shared arena kept it flat. Set before the threads allocate
  // anything; it holds for the whole process.
  mallopt(M_ARENA_MAX, 1);
#endif
  stats_.solve_workers = static_cast<std::size_t>(workers);
  workers_.reserve(stats_.solve_workers);
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { solve_loop(); });
  }
}

SolverDaemon::~SolverDaemon() { shutdown(); }

void SolverDaemon::register_matrix(const std::string& name,
                                   const core::Format& format,
                                   std::function<sparse::Csr()> build) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  registry_[name] = Registration{format, std::move(build)};
}

void SolverDaemon::register_suite() {
  for (const gen::SuiteSpec& spec : gen::suite()) {
    const core::Format format = spec.fv_override != 0
                                    ? core::default_format_fv16()
                                    : core::default_format();
    const gen::SuiteSpec* p = &spec;  // suite() spans static storage
    register_matrix(spec.name, format, [p] {
      return gen::load_or_build(*p, gen::default_data_dir());
    });
  }
}

std::future<SolveResponse> SolverDaemon::submit(SolveRequest request) {
  const TimePoint now = Clock::now();
  PendingRequest pending;
  pending.request = std::move(request);
  pending.submit_time = now;
  pending.admit_time = now;
  std::future<SolveResponse> future = pending.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.submitted;
  }
  // Injected admission fault: the request is shed exactly as if the
  // daemon were full, exercising the client-visible overload path without
  // actually filling it.
  if (util::FaultInjector::global().should_fire(
          util::FaultSite::kAdmission)) {
    respond_shed(std::move(pending), ResponseStatus::kShedQueueFull);
    return future;
  }
  ResponseStatus refused = ResponseStatus::kOk;
  {
    std::lock_guard<std::mutex> lock(work_mutex_);
    if (closed_) {
      refused = ResponseStatus::kShutdown;
    } else if (inbox_.size() + batcher_.pending() >= config_.queue_capacity) {
      refused = ResponseStatus::kShedQueueFull;
    } else if (config_.manual_pump) {
      inbox_.push_back(std::move(pending));
    } else {
      batcher_.add(std::move(pending), now);
    }
  }
  if (refused != ResponseStatus::kOk) {
    respond_shed(std::move(pending), refused);
  } else if (!config_.manual_pump) {
    work_cv_.notify_all();
  }
  return future;
}

void SolverDaemon::pump(TimePoint now) {
  // Manual mode only: the pumping thread solves every ready batch inline.
  std::vector<PendingRequest> shed;
  std::unique_lock<std::mutex> lock(work_mutex_);
  for (PendingRequest& p : inbox_) {
    p.admit_time = Clock::now();
    batcher_.add(std::move(p), now);
  }
  inbox_.clear();
  for (;;) {
    std::optional<Batcher::ReadyBatch> ready =
        batcher_.pop_ready(now, &shed, closed_);
    lock.unlock();
    for (PendingRequest& p : shed) {
      respond_shed(std::move(p), ResponseStatus::kShedDeadline);
    }
    shed.clear();
    if (!ready) return;
    dispatch_batch(std::move(*ready));
    lock.lock();
  }
}

void SolverDaemon::solve_loop() {
  std::vector<PendingRequest> shed;
  std::unique_lock<std::mutex> lock(work_mutex_);
  for (;;) {
    // Expired members shed here, busy keys' groups included, so a request
    // whose deadline passed while its key was solving never runs.
    std::optional<Batcher::ReadyBatch> ready =
        batcher_.pop_ready(Clock::now(), &shed, closed_, &solving_);
    if (!ready && shed.empty()) {
      if (closed_ && batcher_.empty()) return;
      if (std::optional<TimePoint> next = batcher_.next_event(&solving_)) {
        work_cv_.wait_until(lock, *next);
      } else {
        work_cv_.wait(lock);
      }
      continue;
    }
    std::string key;
    if (ready) {
      key = ready->key;
      solving_.insert(key);
    }
    lock.unlock();
    for (PendingRequest& p : shed) {
      respond_shed(std::move(p), ResponseStatus::kShedDeadline);
    }
    shed.clear();
    if (ready) dispatch_batch(std::move(*ready));
    lock.lock();
    if (ready) {
      solving_.erase(key);
      work_cv_.notify_all();  // the key's group may be ready
    }
  }
}

void SolverDaemon::respond_shed(PendingRequest&& pending,
                                ResponseStatus status) {
  SolveResponse response;
  response.status = status;
  response.latency.queue_seconds =
      std::chrono::duration<double>(pending.admit_time - pending.submit_time)
          .count();
  response.latency.total_seconds =
      std::chrono::duration<double>(Clock::now() - pending.submit_time)
          .count();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (status == ResponseStatus::kShedDeadline) {
      ++stats_.shed_deadline;
    } else if (status == ResponseStatus::kShedQueueFull) {
      ++stats_.shed_queue_full;
    } else {
      ++stats_.failed;
    }
  }
  pending.promise.set_value(std::move(response));
}

void SolverDaemon::dispatch_batch(Batcher::ReadyBatch&& batch) {
  Registration reg;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    auto it = registry_.find(batch.matrix);
    if (it == registry_.end()) {
      for (PendingRequest& p : batch.requests) {
        respond_shed(std::move(p), ResponseStatus::kUnknownMatrix);
      }
      return;
    }
    reg = it->second;
  }

  // The batch key pins the execution view; every member agrees on backend
  // kind and noise sigma by construction (batch_key groups on them).
  const core::BackendKind kind = batch.requests.front().request.backend;
  const double sigma = batch.requests.front().request.noise_sigma;

  util::Timer build_timer;
  bool cache_hit = false;
  ResidencyCache::EntryPtr entry;
  // Named (not inline) so the recovery ladder's rebuild rung can re-run the
  // identical builder after evicting a persistently-corrupted resident.
  const ResidencyCache::Builder builder =
      [this, &reg, kind, sigma]() -> ResidencyCache::EntryPtr {
    // Injected residency-build fault: surfaces through the builder's
    // exception path (single-flight marker cleared, batch answered as
    // failed) — the same path a gen:: loader error takes.
    if (util::FaultInjector::global().should_fire(
            util::FaultSite::kCacheBuild)) {
      throw std::runtime_error("injected residency-build fault");
    }
    return build_resident(reg.build(), reg.format, kind, sigma,
                          config_.tiles, config_.abft);
  };
  try {
    entry = cache_.get_or_build(batch.key, builder, &cache_hit);
  } catch (const std::exception& e) {
    RF_LOG_ERROR("serve: building \"%s\" failed: %s", batch.key.c_str(),
                 e.what());
  }
  if (entry == nullptr) {
    for (PendingRequest& p : batch.requests) {
      respond_shed(std::move(p), ResponseStatus::kUnknownMatrix);
    }
    return;
  }
  const double build_seconds = build_timer.seconds();

  const std::size_t n =
      static_cast<std::size_t>(entry->rf.quantized().rows());

  // Materialize/validate right-hand sides; answer bad ones before solving.
  std::vector<PendingRequest> valid;
  valid.reserve(batch.requests.size());
  for (PendingRequest& p : batch.requests) {
    if (p.request.rhs.empty()) {
      p.request.rhs = seeded_rhs(n, p.request.rhs_seed);
    }
    if (p.request.rhs.size() != n) {
      respond_shed(std::move(p), ResponseStatus::kBadRequest);
      continue;
    }
    valid.push_back(std::move(p));
  }
  if (valid.empty()) return;

  const std::size_t k = valid.size();
  std::vector<double> b(k * n);
  std::vector<double> tolerances(k);
  for (std::size_t c = 0; c < k; ++c) {
    std::copy(valid[c].request.rhs.begin(), valid[c].request.rhs.end(),
              b.begin() + static_cast<long>(c * n));
    tolerances[c] = valid[c].request.tolerance;
  }

  solve::SolveOptions options;
  options.max_iterations = config_.max_iterations;
  options.record_trace = false;

  // Per-column stream identities: each request's own noise_seed, so column
  // c of this batch is bit-identical to a solo solve with that seed — the
  // batch a request happens to ride in is unobservable in its answer.
  std::vector<std::uint64_t> noise_seeds(k);
  for (std::size_t c = 0; c < k; ++c) {
    noise_seeds[c] = valid[c].request.noise_seed;
  }

  util::Timer solve_timer;
  solve::BackendMultiOperator op(*entry->backend, noise_seeds);
  solve::BatchedSolveResult result =
      entry->indefinite
          ? solve::bicgstab_multi(op, b, k, options, tolerances)
          : solve::cg_multi(op, b, k, options, tolerances);
  const double solve_seconds = solve_timer.seconds();

  // One record per column: the batch answer, then the recovery ladder for
  // every failed column (k=1 solves — the failed column alone, not the
  // whole batch again).
  std::vector<Recovery> records(k);
  for (std::size_t c = 0; c < k; ++c) {
    records[c].column = std::move(result.columns[c]);
    records[c].view = kind;
  }
  const double per_column_estimate = solve_seconds / static_cast<double>(k);
  for (const solve::ColumnFailure& f : result.failures) {
    const std::size_t c = f.column;
    Recovery& rec = records[c];
    if (f.status == solve::SolveStatus::kCorrupted) ++rec.abft_failures;
    // A column that ran out its iteration budget got exactly the service
    // it paid for — a retry would burn the same budget again.
    if (config_.max_retries <= 0 ||
        f.status == solve::SolveStatus::kMaxIterations) {
      continue;
    }
    recover_column(rec, batch.key, entry, builder, kind, sigma,
                   std::span<const double>(b).subspan(c * n, n),
                   tolerances[c], noise_seeds[c], valid[c].request.deadline,
                   options, per_column_estimate);
    RF_LOG_WARN(
        "serve: column %zu of \"%s\" failed (%s at iter %ld, last-good "
        "residual %.3e): %d retr%s, %s",
        c, batch.key.c_str(), solve::status_name(f.status), f.iteration,
        f.last_good_residual, rec.retries, rec.retries == 1 ? "y" : "ies",
        rec.shed ? "shed" : solve::status_name(rec.column.status));
  }
  const TimePoint done = Clock::now();

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.batches;
    stats_.batched_requests += k;
    stats_.max_batch_k = std::max<std::uint64_t>(stats_.max_batch_k, k);
    for (std::size_t c = 0; c < k; ++c) {
      const Recovery& rec = records[c];
      stats_.abft_failures += static_cast<std::uint64_t>(rec.abft_failures);
      stats_.retries += static_cast<std::uint64_t>(rec.retries);
      stats_.reprograms += static_cast<std::uint64_t>(rec.reprograms);
      stats_.rebuilds += static_cast<std::uint64_t>(rec.rebuilds);
      if (rec.retries > 0 &&
          rec.column.status == solve::SolveStatus::kConverged) {
        ++stats_.recovered;
        if (rec.view != kind) ++stats_.degraded;
      }
      if (rec.shed) continue;  // respond_shed counts it
      ++stats_.completed;
      if (total_ms_reservoir_.size() < kMaxReservoir) {
        total_ms_reservoir_.push_back(
            std::chrono::duration<double, std::milli>(done -
                                                      valid[c].submit_time)
                .count());
      }
    }
  }

  for (std::size_t c = 0; c < k; ++c) {
    PendingRequest& p = valid[c];
    Recovery& rec = records[c];
    if (rec.shed) {
      respond_shed(std::move(p), ResponseStatus::kShedDeadline);
      continue;
    }
    SolveResponse response;
    response.status = ResponseStatus::kOk;
    response.solve_status = rec.column.status;
    response.iterations = rec.column.iterations;
    response.final_residual = rec.column.final_residual;
    if (p.request.want_solution) {
      response.solution = std::move(rec.column.solution);
    }
    response.batch_k = k;
    response.solver = solver_name_of(entry->indefinite);
    response.backend = core::backend_kind_name(rec.view);
    response.cache_hit = cache_hit;
    response.retries = rec.retries;
    response.degraded = rec.view != kind;
    response.latency.queue_seconds =
        std::chrono::duration<double>(p.admit_time - p.submit_time).count();
    response.latency.build_seconds = cache_hit ? 0.0 : build_seconds;
    response.latency.solve_seconds = solve_seconds;
    response.latency.total_seconds =
        std::chrono::duration<double>(done - p.submit_time).count();
    p.promise.set_value(std::move(response));
  }
}

// --- Recovery ladder -------------------------------------------------------
// One failed column walks down next_rung()'s rungs, one attempt each,
// bounded by config.max_retries and the request's deadline. An
// ABFT-corrupted solve re-runs from scratch — the flagged apply's output was
// discarded before touching x, so a clean retry reproduces the fault-free
// trajectory bit-for-bit (transient faults). Diverged/stalled/breakdown
// trajectories instead warm-start from the last-good iterate. A degraded
// view is checked against the resident's own checksum (the snapshot of the
// clean operand), not a fresh one over a possibly damaged operand, and the
// response carries degraded=true and the view that actually answered.
// Before every attempt the expected cost (the measured duration of the
// previous attempt) is checked against the deadline; when another attempt
// no longer fits, the request is shed instead of answered late.
void SolverDaemon::recover_column(
    Recovery& rec, const std::string& key, ResidencyCache::EntryPtr& entry,
    const ResidencyCache::Builder& rebuild, core::BackendKind served,
    double sigma, std::span<const double> b_col, double tolerance,
    std::uint64_t noise_seed, TimePoint deadline,
    const solve::SolveOptions& options, double attempt_estimate_seconds) {
  // Degraded-view backends are built on demand over the resident matrix;
  // their ABFT checksum must outlive every solve that checks against it.
  std::unique_ptr<core::SweepBackend> degraded_backend;
  core::AbftChecksum degraded_abft;

  double estimate = std::max(attempt_estimate_seconds, 0.0);
  bool reprogrammed = false;
  bool rebuilt = false;

  for (int attempt = 1; attempt <= config_.max_retries; ++attempt) {
    if (rec.column.status == solve::SolveStatus::kConverged) return;
    if (deadline != kNoDeadline &&
        Clock::now() + std::chrono::duration_cast<Duration>(
                           std::chrono::duration<double>(estimate)) >
            deadline) {
      rec.shed = true;
      return;
    }

    const bool corrupted =
        rec.column.status == solve::SolveStatus::kCorrupted;
    switch (next_rung(served, rec.view, reprogrammed, rebuilt, attempt,
                      rec.column.status)) {
      case Rung::kStop:
        return;
      case Rung::kResolve:
        break;
      case Rung::kReprogram:
        if (entry->backend->reprogram(static_cast<std::uint64_t>(attempt))) {
          reprogrammed = true;
          ++rec.reprograms;
        }
        break;
      case Rung::kRebuild:
        cache_.erase(key);
        try {
          ResidencyCache::EntryPtr fresh = cache_.get_or_build(key, rebuild);
          if (fresh != nullptr) {
            entry = std::move(fresh);
            rebuilt = true;
            ++rec.rebuilds;
          }
        } catch (const std::exception& e) {
          RF_LOG_WARN("serve: rebuilding \"%s\" for recovery failed: %s",
                      key.c_str(), e.what());
        }
        break;
      case Rung::kDegrade:
        rec.view = rec.view == core::BackendKind::kBitTrue
                       ? core::BackendKind::kNoisy
                       : core::BackendKind::kValue;
        degraded_backend = make_view(*entry, rec.view, sigma);
        if (config_.abft) {
          degraded_abft = entry->abft;
          degraded_abft.rel_tolerance = abft_tolerance(rec.view, sigma);
          degraded_backend->set_abft(&degraded_abft);
        }
        break;
    }

    // Corrupted attempts restart clean (bit-identity with the fault-free
    // solve); persistent failures warm-start from the last-good iterate.
    const std::span<const double> x0 =
        corrupted ? std::span<const double>()
                  : std::span<const double>(rec.column.solution);
    core::SweepBackend& backend =
        rec.view != served ? *degraded_backend : *entry->backend;

    solve::SolveOptions opts = options;
    opts.tolerance = tolerance;
    solve::BackendMultiOperator op(backend,
                                   std::vector<std::uint64_t>{noise_seed});
    util::Timer timer;
    solve::BatchedSolveResult attempt_result =
        entry->indefinite
            ? solve::bicgstab_multi(op, b_col, 1, opts, {}, x0)
            : solve::cg_multi(op, b_col, 1, opts, {}, x0);
    estimate = timer.seconds();
    ++rec.retries;
    if (attempt_result.columns[0].status == solve::SolveStatus::kCorrupted) {
      ++rec.abft_failures;
    }
    rec.column = std::move(attempt_result.columns[0]);
  }
}

void SolverDaemon::shutdown() {
  {
    // Closed under work_mutex_, so no worker misses it between finding
    // nothing ready and going to sleep: from here on every group flushes
    // without waiting out its window.
    std::lock_guard<std::mutex> lock(work_mutex_);
    if (closed_) return;
    closed_ = true;
  }
  if (config_.manual_pump) {
    pump(Clock::now());
    return;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ServeStats SolverDaemon::stats() const {
  ServeStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    out = stats_;
    out.p50_total_ms = util::percentile(total_ms_reservoir_, 50.0);
    out.p99_total_ms = util::percentile(total_ms_reservoir_, 99.0);
  }
  out.cache = cache_.stats();
  return out;
}

}  // namespace refloat::serve

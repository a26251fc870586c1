#include "src/serve/daemon.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <utility>
#include <variant>

#include "src/arch/config.h"
#include "src/arch/timing.h"
#include "src/gen/suite.h"
#include "src/hw/bit_true_backend.h"
#include "src/solvers/batched.h"
#include "src/sparse/vector_ops.h"
#include "src/util/fault_injector.h"
#include "src/util/log.h"
#include "src/util/random.h"
#include "src/util/stats.h"
#include "src/util/timer.h"

namespace refloat::serve {

namespace {

// Positive-integer env override of at most `max`; invalid values — including
// ones strtoll clamps with ERANGE and ones above `max` — warn and keep
// `fallback`.
std::size_t env_size(const char* name, std::size_t fallback,
                     std::size_t max = SIZE_MAX) {
  const char* text = std::getenv(name);
  if (text == nullptr || text[0] == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || parsed < 1 ||
      static_cast<unsigned long long>(parsed) > max) {
    RF_LOG_WARN("%s=\"%s\" is not a positive integer; using %zu", name, text,
                fallback);
    return fallback;
  }
  return static_cast<std::size_t>(parsed);
}

double env_double(const char* name, double fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr || text[0] == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(parsed >= 0.0)) {
    RF_LOG_WARN("%s=\"%s\" is not a non-negative number; using %g", name,
                text, fallback);
    return fallback;
  }
  return parsed;
}

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

ServeConfig ServeConfig::from_env() {
  ServeConfig config;
  config.queue_capacity = env_size("REFLOAT_SERVE_QUEUE",
                                   config.queue_capacity);
  config.max_batch = env_size("REFLOAT_SERVE_BATCH", config.max_batch);
  config.batch_window_ms =
      env_double("REFLOAT_SERVE_WINDOW_MS", config.batch_window_ms);
  // Bounded so the shift to bytes cannot wrap.
  config.cache_bytes = env_size("REFLOAT_SERVE_CACHE_MB",
                                config.cache_bytes >> 20, SIZE_MAX >> 20)
                       << 20;
  if (const char* text = std::getenv("REFLOAT_SERVE_ABFT");
      text != nullptr && text[0] != '\0') {
    config.abft = !(text[0] == '0' && text[1] == '\0');
  }
  if (const char* text = std::getenv("REFLOAT_SERVE_RETRIES");
      text != nullptr && text[0] != '\0') {
    char* end = nullptr;
    const long parsed = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || parsed < 0) {
      RF_LOG_WARN("REFLOAT_SERVE_RETRIES=\"%s\" is not a non-negative "
                  "integer; using %d",
                  text, config.max_retries);
    } else {
      config.max_retries = static_cast<int>(parsed);
    }
  }
  return config;
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

SolverDaemon::SolverDaemon(ServeConfig config)
    : config_(config),
      queue_(config.queue_capacity),
      batcher_(config.max_batch, window_duration(config.batch_window_ms)),
      cache_(config.cache_bytes) {
  if (config_.tiles <= 0) config_.tiles = core::default_tile_count();
  if (!config_.manual_pump) {
    dispatcher_ = std::thread([this] { dispatch_loop(); });
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
  PendingRequest pending;
  pending.request = std::move(request);
  pending.submit_time = Clock::now();
  std::future<SolveResponse> future = pending.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.submitted;
  }
  // Injected admission fault: the request is shed exactly as if the
  // bounded queue were full, exercising the client-visible overload path
  // without actually filling the queue.
  if (util::FaultInjector::global().should_fire(
          util::FaultSite::kAdmission)) {
    pending.dequeue_time = pending.submit_time;
    respond_shed(std::move(pending), ResponseStatus::kShedQueueFull);
    return future;
  }
  if (!queue_.try_push(std::move(pending))) {
    // try_push consumes `pending` only on success; a rejected request is
    // still ours to answer. Closed queue = shutting down, full queue =
    // admission-control shed.
    pending.dequeue_time = pending.submit_time;
    respond_shed(std::move(pending), queue_.closed()
                                         ? ResponseStatus::kShutdown
                                         : ResponseStatus::kShedQueueFull);
  }
  return future;
}

void SolverDaemon::pump(TimePoint now) {
  // Manual mode only; the threaded dispatcher owns the batcher otherwise.
  while (auto item = queue_.try_pop()) {
    item->dequeue_time = Clock::now();
    batcher_.add(std::move(*item), now);
  }
  step(now, queue_.closed());
}

void SolverDaemon::dispatch_loop() {
  for (;;) {
    std::optional<TimePoint> event = batcher_.next_event();
    const TimePoint wake =
        event.value_or(Clock::now() + std::chrono::milliseconds(100));
    std::optional<PendingRequest> item = queue_.pop_until(wake);
    const TimePoint now = Clock::now();
    if (item) {
      item->dequeue_time = now;
      batcher_.add(std::move(*item), now);
      // Opportunistically drain whatever arrived in the same burst so one
      // wakeup forms one batch instead of k.
      while (auto more = queue_.try_pop()) {
        more->dequeue_time = now;
        batcher_.add(std::move(*more), now);
      }
    }
    const bool closing = queue_.closed() && queue_.size() == 0;
    step(now, closing);
    if (closing && batcher_.empty()) return;
  }
}

void SolverDaemon::step(TimePoint now, bool force) {
  std::vector<PendingRequest> shed;
  for (;;) {
    std::optional<Batcher::ReadyBatch> ready =
        batcher_.pop_ready(now, &shed, force);
    for (PendingRequest& p : shed) {
      respond_shed(std::move(p), ResponseStatus::kShedDeadline);
    }
    shed.clear();
    if (!ready) break;
    dispatch_batch(std::move(*ready));
  }
}

void SolverDaemon::respond_shed(PendingRequest&& pending,
                                ResponseStatus status) {
  SolveResponse response;
  response.status = status;
  response.latency.queue_seconds =
      std::chrono::duration<double>(pending.dequeue_time -
                                    pending.submit_time)
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
  const int tiles = config_.tiles;
  const bool abft_on = config_.abft;
  // Named (not inline) so the recovery ladder's rebuild rung can re-run the
  // identical builder after evicting a persistently-corrupted resident.
  const ResidencyCache::Builder builder =
      [&reg, tiles, kind, sigma, abft_on]() -> ResidencyCache::EntryPtr {
    util::Timer timer;
    util::FaultInjector& inj = util::FaultInjector::global();
    // Injected residency-build fault: surfaces through the builder's
    // exception path (single-flight marker cleared, batch answered as
    // failed) — the same path a gen:: loader error takes.
    if (inj.should_fire(util::FaultSite::kCacheBuild)) {
      throw std::runtime_error("injected residency-build fault");
    }
    sparse::Csr a = reg.build();
    auto built =
        std::make_shared<ResidentEntry>(core::RefloatMatrix(a, reg.format));
    // The ABFT checksum and the definiteness probe read the clean
    // quantized operand, before any injected corruption below.
    if (abft_on) {
      built->abft =
          core::make_abft_checksum(built->rf, abft_tolerance(kind, sigma));
    }
    if (built->rf.quantized().rows() == built->rf.quantized().cols()) {
      built->indefinite =
          built->rf.probe_definiteness().likely_indefinite();
    }
    // Injected plan corruption: silently damages the resident operand —
    // one stored value code of the packed dequantized operand, which value
    // backends sweep and from which noisy and bit-true backends build their
    // SpmvPlan below. Checked sweeps flag it on the first apply against the
    // checksum taken above.
    if (inj.armed(util::FaultSite::kPlanBuild)) {
      std::visit(
          [&inj](auto codes) {
            inj.maybe_corrupt(util::FaultSite::kPlanBuild, codes);
          },
          built->rf.mutable_quantized_codes());
    }
    if (tiles > 1 && built->rf.nonzero_blocks() > 0) {
      built->tiled = core::TiledPlan::partition(built->rf, {.tiles = tiles});
    }
    // The backend borrows built->rf and built->tiled, whose addresses the
    // shared entry pins.
    const core::TiledPlan* tp =
        built->tiled.empty() ? nullptr : &built->tiled;
    switch (kind) {
      case core::BackendKind::kValue:
        built->backend = core::make_value_backend(built->rf, tp);
        break;
      case core::BackendKind::kNoisy:
        // The constructor seed is the empty-context fallback only;
        // serving always passes each request's own noise_seed
        // through the SweepContext, so 0 is never consumed.
        built->backend = core::make_noisy_backend(built->rf, sigma,
                                                  /*seed=*/0, tp);
        break;
      case core::BackendKind::kBitTrue:
        // Default ClusterConfig = the ideal datapath (no faults, no
        // conductance noise): bit-true serving is deterministic and
        // the programmed image is built once per residency — the
        // expensive step this cache exists to amortize.
        built->backend =
            tp != nullptr
                ? std::make_unique<hw::BitTrueBackend>(
                      built->rf, hw::ClusterConfig{}, *tp)
                : std::make_unique<hw::BitTrueBackend>(
                      built->rf, hw::ClusterConfig{});
        break;
    }
    if (abft_on) built->backend->set_abft(&built->abft);
    built->bytes = built->rf.resident_bytes() +
                   built->tiled.index_bytes() +
                   built->backend->resident_bytes();
    built->build_seconds = timer.seconds();
    return built;
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

  // Recovery ladder: walk every failed column down the retry/degrade rungs
  // (k=1 solves — the failed column alone, not the whole batch again).
  struct ColumnOutcome {
    const char* backend_name = nullptr;
    int retries = 0;
    bool degraded = false;
    bool shed = false;
  };
  std::vector<ColumnOutcome> outcome(k);
  for (ColumnOutcome& o : outcome) {
    o.backend_name = core::backend_kind_name(kind);
  }
  std::uint64_t tally_abft = 0, tally_retries = 0, tally_recovered = 0;
  std::uint64_t tally_degraded = 0, tally_reprograms = 0, tally_rebuilds = 0;
  double tally_reprogram_seconds = 0.0;
  if (config_.max_retries > 0 && !result.failures.empty()) {
    const double per_column_estimate =
        solve_seconds / static_cast<double>(k);
    for (const solve::ColumnFailure& f : result.failures) {
      if (f.status == solve::SolveStatus::kCorrupted) ++tally_abft;
      // A column that ran out its iteration budget got exactly the service
      // it paid for — a retry would burn the same budget again.
      if (f.status == solve::SolveStatus::kMaxIterations) continue;
      const std::size_t c = f.column;
      Recovery rec = recover_column(
          batch.key, entry, builder, kind, sigma,
          std::span<const double>(b).subspan(c * n, n), tolerances[c],
          noise_seeds[c], valid[c].request.deadline, options,
          std::move(result.columns[c]), per_column_estimate);
      RF_LOG_WARN(
          "serve: column %zu of \"%s\" failed (%s at iter %ld, last-good "
          "residual %.3e): %d retr%s, %s",
          c, batch.key.c_str(), solve::status_name(f.status), f.iteration,
          f.last_good_residual, rec.retries, rec.retries == 1 ? "y" : "ies",
          rec.shed ? "shed"
                   : solve::status_name(rec.column.status));
      result.columns[c] = std::move(rec.column);
      outcome[c].backend_name = core::backend_kind_name(rec.final_kind);
      outcome[c].retries = rec.retries;
      outcome[c].degraded = rec.degraded;
      outcome[c].shed = rec.shed;
      tally_retries += static_cast<std::uint64_t>(rec.retries);
      tally_abft += static_cast<std::uint64_t>(rec.abft_failures);
      tally_reprograms += static_cast<std::uint64_t>(rec.reprograms);
      tally_rebuilds += static_cast<std::uint64_t>(rec.rebuilds);
      tally_reprogram_seconds += rec.reprogram_seconds;
      if (!rec.shed &&
          result.columns[c].status == solve::SolveStatus::kConverged) {
        ++tally_recovered;
        if (rec.degraded) ++tally_degraded;
      }
    }
  } else {
    for (const solve::ColumnFailure& f : result.failures) {
      if (f.status == solve::SolveStatus::kCorrupted) ++tally_abft;
    }
  }
  const TimePoint done = Clock::now();

  for (std::size_t c = 0; c < k; ++c) {
    PendingRequest& p = valid[c];
    if (outcome[c].shed) {
      respond_shed(std::move(p), ResponseStatus::kShedDeadline);
      continue;
    }
    SolveResponse response;
    response.status = ResponseStatus::kOk;
    response.solve_status = result.columns[c].status;
    response.iterations = result.columns[c].iterations;
    response.final_residual = result.columns[c].final_residual;
    if (p.request.want_solution) {
      response.solution = std::move(result.columns[c].solution);
    }
    response.batch_k = k;
    response.solver = solver_name_of(entry->indefinite);
    response.backend = outcome[c].backend_name;
    response.cache_hit = cache_hit;
    response.retries = outcome[c].retries;
    response.degraded = outcome[c].degraded;
    response.latency.queue_seconds =
        std::chrono::duration<double>(p.dequeue_time - p.submit_time).count();
    response.latency.build_seconds = cache_hit ? 0.0 : build_seconds;
    response.latency.solve_seconds = solve_seconds;
    response.latency.total_seconds =
        std::chrono::duration<double>(done - p.submit_time).count();
    record_completion(response);
    p.promise.set_value(std::move(response));
  }

  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.batches;
  stats_.batched_requests += k;
  stats_.max_batch_k = std::max<std::uint64_t>(stats_.max_batch_k, k);
  stats_.abft_failures += tally_abft;
  stats_.retries += tally_retries;
  stats_.recovered += tally_recovered;
  stats_.degraded += tally_degraded;
  stats_.reprograms += tally_reprograms;
  stats_.rebuilds += tally_rebuilds;
  stats_.reprogram_seconds_sum += tally_reprogram_seconds;
}

// --- Recovery ladder -------------------------------------------------------
// One failed column walks down these rungs, one attempt each, bounded by
// config.max_retries and the request's deadline:
//   1. Re-solve on the same backend. An ABFT-corrupted solve re-runs from
//      scratch — the flagged apply's output was discarded before touching
//      x, so a clean retry reproduces the fault-free trajectory bit-for-bit
//      (transient faults). Diverged/stalled/breakdown trajectories instead
//      warm-start from the last-good iterate.
//   2. Bit-true: reprogram the crossbar image under a fresh fault seed,
//      priced at a full write-verify programming pass.
//   3. Corruption that survived the re-solve (and, for bit-true, the
//      reprogram, which re-images from the same resident operand) means
//      the resident itself is damaged: evict the residency entry and
//      rebuild it.
//   4. Degrade one execution view per remaining attempt
//      (bittrue -> noisy -> value) and re-solve; the response carries
//      degraded=true and the view that actually answered. A degraded view
//      is checked against the resident's own checksum (the snapshot of the
//      clean operand), not a fresh one over a possibly damaged operand.
// Before every attempt the expected cost (the measured duration of the
// previous attempt) is checked against the deadline; when another attempt
// no longer fits, the request is shed instead of answered late.
SolverDaemon::Recovery SolverDaemon::recover_column(
    const std::string& key, ResidencyCache::EntryPtr& entry,
    const ResidencyCache::Builder& rebuild, core::BackendKind kind,
    double sigma, std::span<const double> b_col, double tolerance,
    std::uint64_t noise_seed, TimePoint deadline,
    const solve::SolveOptions& options, solve::SolveResult&& failed,
    double attempt_estimate_seconds) {
  Recovery rec;
  rec.column = std::move(failed);
  rec.final_kind = kind;

  // Degraded-view backends are built on demand over the resident matrix;
  // their ABFT checksum must outlive every solve that checks against it.
  std::unique_ptr<core::SweepBackend> degraded_backend;
  core::AbftChecksum degraded_abft;

  double estimate = std::max(attempt_estimate_seconds, 0.0);
  bool reprogrammed = false;
  bool rebuilt = false;

  for (int attempt = 1; attempt <= config_.max_retries; ++attempt) {
    if (rec.column.status == solve::SolveStatus::kConverged) break;
    if (deadline != kNoDeadline &&
        Clock::now() + std::chrono::duration_cast<Duration>(
                           std::chrono::duration<double>(estimate)) >
            deadline) {
      rec.shed = true;
      return rec;
    }

    const bool corrupted =
        rec.column.status == solve::SolveStatus::kCorrupted;
    if (attempt > 1) {
      // Rung 2+: change something before solving again.
      if (kind == core::BackendKind::kBitTrue && !reprogrammed &&
          !rec.degraded) {
        if (entry->backend->reprogram(static_cast<std::uint64_t>(attempt))) {
          reprogrammed = true;
          ++rec.reprograms;
          rec.reprogram_seconds += arch::reprogram_seconds(
              arch::AcceleratorConfig{}, entry->rf.nonzero_blocks());
        }
      } else if (corrupted && !rebuilt && !rec.degraded) {
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
      } else {
        // Degrade one view. Value is the floor — out of rungs there.
        core::BackendKind next = rec.final_kind;
        if (rec.final_kind == core::BackendKind::kBitTrue) {
          next = core::BackendKind::kNoisy;
        } else if (rec.final_kind == core::BackendKind::kNoisy) {
          next = core::BackendKind::kValue;
        } else {
          break;
        }
        const core::TiledPlan* tp =
            entry->tiled.empty() ? nullptr : &entry->tiled;
        degraded_backend =
            next == core::BackendKind::kNoisy
                ? core::make_noisy_backend(entry->rf, sigma, /*seed=*/0, tp)
                : core::make_value_backend(entry->rf, tp);
        if (config_.abft) {
          degraded_abft = entry->abft;
          degraded_abft.rel_tolerance = abft_tolerance(next, sigma);
          degraded_backend->set_abft(&degraded_abft);
        }
        rec.final_kind = next;
        rec.degraded = true;
      }
    }

    // Corrupted attempts restart clean (bit-identity with the fault-free
    // solve); persistent failures warm-start from the last-good iterate.
    const std::span<const double> x0 =
        corrupted ? std::span<const double>()
                  : std::span<const double>(rec.column.solution);
    core::SweepBackend& backend =
        rec.degraded ? *degraded_backend : *entry->backend;

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
  return rec;
}

void SolverDaemon::record_completion(const SolveResponse& response) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.completed;
  stats_.queue_seconds_sum += response.latency.queue_seconds;
  stats_.build_seconds_sum += response.latency.build_seconds;
  stats_.solve_seconds_sum += response.latency.solve_seconds;
  stats_.total_seconds_sum += response.latency.total_seconds;
  if (total_ms_reservoir_.size() < kMaxReservoir) {
    total_ms_reservoir_.push_back(response.latency.total_seconds * 1e3);
  }
}

void SolverDaemon::shutdown() {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  queue_.close();
  if (dispatcher_.joinable()) {
    dispatcher_.join();
  } else {
    // Manual mode: flush whatever is still queued or batched.
    pump(Clock::now());
  }
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

// bench_e2e: the solve-service benchmark.
//
//   bench_e2e --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//             [--smoke] [--out <file>] [--trace-out <file>]
//             [--data-root <dir>] [--git-sha <sha>]
//
// One generator thread (this one) drives an in-process serve::SolverDaemon
// through its public submit() with a fixed request list (workloads.h): a
// fixed number of passes over the workload's list, --seconds divided by the
// list's nominal pass time, so every commit serves exactly the same
// requests however fast it runs. Every answer is checked: it
// must be kOk, converged, finite, and bit-identical to a replay of its
// request through the library's layers (replay.h). Untraced runs replay
// the first answer of every key; traced runs (--trace 1, and --smoke)
// replay every batch with a span around every layer call and report the
// per-layer metrics instead of the end-to-end ones.
//
// The last line of stdout is one JSON object with `correct`, `attempted`,
// `failed` and `metrics`; --out writes the full result with run context
// and sample counts, and --trace-out writes Chrome trace-event JSON. The
// exit code is non-zero when any answer fails a check.
#include <stdlib.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/replay.h"
#include "bench/e2e/workloads.h"
#include "src/arch/config.h"
#include "src/arch/timing.h"
#include "src/core/simd.h"
#include "src/serve/daemon.h"
#include "src/sparse/vector_ops.h"
#include "src/util/random.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"

#ifndef REFLOAT_E2E_BUILD_TYPE
#define REFLOAT_E2E_BUILD_TYPE "unknown"
#endif

namespace {

namespace rf = refloat;
using e2e::Clock;

// Set-ups per run: at least kMinSetups, more while they take under
// kSetupBudgetS in total (a cheap set-up is a noisy one), at most
// kMaxSetups. setup_s reports their median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 9;
constexpr double kSetupBudgetS = 2.0;
// ServeConfig::tiles, pinned so REFLOAT_TILES cannot change the work.
constexpr int kTiles = 1;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Arguments

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 16.0;
  bool trace = false;
  bool smoke = false;
  std::string out;
  std::string trace_out;
  std::string data_root = ".";
  std::string git_sha = "unknown";
};

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

bool parse_args(int argc, char** argv, Options* o, std::string* error) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value after " + arg;
      return false;
    }
    const char* value = argv[++i];
    if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        *error = "--trace needs 0 or 1";
        return false;
      }
      o->trace = value[0] == '1';
    } else if (arg == "--workload") {
      o->workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, &o->seed)) {
        *error = "--seed needs a non-negative integer";
        return false;
      }
      have_seed = true;
    } else if (arg == "--seconds") {
      char* end = nullptr;
      o->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(o->seconds >= 0.0) ||
          o->seconds > 3600.0) {
        *error = "--seconds needs a number in [0, 3600]";
        return false;
      }
    } else if (arg == "--out") {
      o->out = value;
    } else if (arg == "--trace-out") {
      o->trace_out = value;
    } else if (arg == "--data-root") {
      o->data_root = value;
    } else if (arg == "--git-sha") {
      o->git_sha = value;
    } else {
      *error = "unknown argument " + arg;
      return false;
    }
  }
  if (o->workload.empty() || !have_seed) {
    *error = "--workload and --seed are required";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// JSON output

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// All digits of a double. JSON has no NaN; run() fails the run before a
// non-finite metric could be printed.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

// ---------------------------------------------------------------------------
// Service set-up

class TempDir {
 public:
  explicit TempDir(const std::string& root) {
    std::filesystem::create_directories(root);
    std::string pattern = root + "/e2e-data-XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("mkdtemp under " + root + " failed");
    }
    path_ = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<std::string> matrices_of(const e2e::Workload& w) {
  std::set<std::string> names;
  for (const e2e::Job& job : w.pass) names.insert(job.matrix);
  return {names.begin(), names.end()};
}

// A fresh data directory (no stale .csr or results cache can leak in) made
// the process's REFLOAT_DATA_DIR, the workload's matrices generated into
// it, and a daemon with the workload's resident keys warmed. Members are
// destroyed daemon first: its build functions read `data`.
struct Service {
  std::unique_ptr<TempDir> data;
  rf::serve::ServeConfig config;
  std::unique_ptr<rf::serve::SolverDaemon> daemon;
};

std::unique_ptr<Service> set_up(const e2e::Workload& w,
                                const std::string& data_root) {
  auto s = std::make_unique<Service>();
  s->data = std::make_unique<TempDir>(data_root);
  const std::string dir = s->data->path();
  // register_suite's builders read the data directory from the environment
  // when they run.
  if (setenv("REFLOAT_DATA_DIR", dir.c_str(), 1) != 0) {
    throw std::runtime_error("setenv REFLOAT_DATA_DIR failed");
  }
  for (const std::string& name : matrices_of(w)) {
    const e2e::MatrixDef& def = e2e::matrix_def(name);
    if (def.spec != nullptr) (void)rf::gen::load_or_build(*def.spec, dir);
  }
  s->config.max_batch = w.max_batch;
  s->config.batch_window_ms = w.window_ms;
  s->config.cache_bytes = w.cache_mb << 20;
  s->config.tiles = kTiles;
  s->config.abft = true;
  s->daemon = std::make_unique<rf::serve::SolverDaemon>(s->config);
  s->daemon->register_suite();
  const e2e::MatrixDef& laplace = e2e::matrix_def(e2e::kLaplace);
  s->daemon->register_matrix(laplace.name, laplace.format, [&laplace, dir] {
    return e2e::load_matrix(laplace, dir);
  });
  for (const e2e::Job& job : e2e::warm_order(w)) {
    rf::serve::SolveRequest request = e2e::job_request(job);
    // ||b|| = 1, so the first residual check converges: warming builds
    // the resident entry and sweeps nothing.
    request.tolerance = 2.0;
    request.want_solution = false;
    const rf::serve::SolveResponse response =
        s->daemon->submit(std::move(request)).get();
    if (response.status != rf::serve::ResponseStatus::kOk) {
      throw std::runtime_error(
          "warming " + e2e::job_key(job) + " failed: " +
          rf::serve::response_status_name(response.status));
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// The daemon pass

struct Answer {
  std::size_t pass = 0;
  std::size_t job = 0;     // index into the workload's pass
  std::size_t member = 0;  // position within the job
  std::string key;
  std::uint64_t rhs_seed = 0;
  std::uint64_t noise_seed = 0;
  double submit_s = 0.0;  // since the run epoch
  rf::serve::SolveResponse response;
  double true_residual = 0.0;
  std::string error;  // non-empty: the answer failed a check
};

void fail(Answer& a, const std::string& why) {
  if (a.error.empty()) a.error = why;
}

struct DaemonPass {
  std::vector<Answer> answers;
  std::vector<double> pass_seconds;
  std::vector<double> pass_cpu_s;
  std::vector<std::size_t> pass_requests;
  double wall_s = 0.0;  // summed over the timed passes
  double cpu_s = 0.0;   // likewise, process CPU time
  double peak_rss_mb = 0.0;  // through set-up and every pass
  rf::serve::ServeStats stats;  // counters over the measured window only
};

std::uint64_t request_seed(std::uint64_t seed, std::uint64_t salt,
                           std::size_t pass, std::size_t job,
                           std::size_t member) {
  return rf::util::stream_seed(seed ^ salt, pass, (job << 20) | member);
}

// User plus system CPU time of the whole process so far.
double process_cpu_seconds() {
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(r.ru_utime) + tv(r.ru_stime);
}

double max_rss_mb() {
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  return static_cast<double>(r.ru_maxrss) / 1024.0;
}

// The counters per_layer_metrics reads, over the measured window only.
rf::serve::ServeStats counter_delta(const rf::serve::ServeStats& after,
                                    const rf::serve::ServeStats& before) {
  rf::serve::ServeStats d;
  d.shed_queue_full = after.shed_queue_full - before.shed_queue_full;
  d.shed_deadline = after.shed_deadline - before.shed_deadline;
  d.batches = after.batches - before.batches;
  d.batched_requests = after.batched_requests - before.batched_requests;
  d.retries = after.retries - before.retries;
  d.cache.hits = after.cache.hits - before.cache.hits;
  d.cache.misses = after.cache.misses - before.cache.misses;
  d.cache.builds = after.cache.builds - before.cache.builds;
  d.cache.evictions = after.cache.evictions - before.cache.evictions;
  return d;
}

// ---------------------------------------------------------------------------
// Answer checks

// Every answer must be kOk, converged, of the matrix's dimension and
// finite. Converged answers get their true residual ||b - A x|| / ||b||
// against the exact FP64 matrix.
void check_answers(std::span<Answer> answers, const e2e::Workload& w,
                   const std::string& data_dir) {
  std::map<std::string, std::vector<std::size_t>> by_matrix;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    by_matrix[w.pass[answers[i].job].matrix].push_back(i);
  }
  for (const auto& [name, ids] : by_matrix) {
    const rf::sparse::Csr a =
        e2e::load_matrix(e2e::matrix_def(name), data_dir);
    const std::size_t n = static_cast<std::size_t>(a.rows());
    std::vector<double> ax(n);
    for (const std::size_t id : ids) {
      Answer& ans = answers[id];
      const rf::serve::SolveResponse& r = ans.response;
      if (r.status != rf::serve::ResponseStatus::kOk) {
        fail(ans, std::string("answered ") +
                      rf::serve::response_status_name(r.status));
        continue;
      }
      if (r.solve_status != rf::solve::SolveStatus::kConverged) {
        fail(ans, std::string("solve status ") +
                      rf::solve::status_name(r.solve_status));
        continue;
      }
      if (r.solution.size() != n) {
        fail(ans, "solution has " + std::to_string(r.solution.size()) +
                      " entries, the matrix " + std::to_string(n));
        continue;
      }
      if (!std::all_of(r.solution.begin(), r.solution.end(),
                       [](double v) { return std::isfinite(v); })) {
        fail(ans, "non-finite solution entry");
        continue;
      }
      const std::vector<double> b = rf::serve::seeded_rhs(n, ans.rhs_seed);
      a.spmv(r.solution, ax);
      rf::sparse::sub(b, ax, ax);
      ans.true_residual = rf::sparse::norm2(ax) / rf::sparse::norm2(b);
    }
  }
}

// Closed loop over the fixed list, `passes` times: at most jobs_in_flight
// jobs outstanding, the oldest collected first; each pass drains before the
// next starts.
//
// Between passes, outside the timed pass, the pass's answers are checked
// and their solutions dropped unless the replay needs them (all of them
// with `keep_all`, else the first answer of each key).
DaemonPass drive(rf::serve::SolverDaemon& daemon, const e2e::Workload& w,
                 std::size_t passes, std::uint64_t seed,
                 const std::string& data_dir, bool keep_all,
                 Clock::time_point epoch) {
  DaemonPass out;
  std::vector<std::future<rf::serve::SolveResponse>> futures;
  std::deque<std::vector<std::size_t>> in_flight;
  const auto collect_oldest = [&] {
    for (const std::size_t id : in_flight.front()) {
      out.answers[id].response = futures[id].get();
    }
    in_flight.pop_front();
  };
  std::vector<std::string> keys;
  for (const e2e::Job& job : w.pass) keys.push_back(e2e::job_key(job));

  std::set<std::string> kept_keys;
  const rf::serve::ServeStats before = daemon.stats();
  for (std::size_t p = 0; p < passes; ++p) {
    const Clock::time_point pass_start = Clock::now();
    const double pass_cpu_start = process_cpu_seconds();
    const std::size_t first = out.answers.size();
    for (std::size_t j = 0; j < w.pass.size(); ++j) {
      if (in_flight.size() >= w.jobs_in_flight) collect_oldest();
      const e2e::Job& job = w.pass[j];
      std::vector<std::size_t> ids;
      for (std::size_t m = 0; m < job.size; ++m) {
        Answer a;
        a.pass = p;
        a.job = j;
        a.member = m;
        a.key = keys[j];
        a.rhs_seed = request_seed(seed, 0x7257, p, j, m);
        a.noise_seed = request_seed(seed, 0x4e015e, p, j, m);
        rf::serve::SolveRequest request = e2e::job_request(job);
        request.rhs_seed = a.rhs_seed;
        request.noise_seed = a.noise_seed;
        request.want_solution = true;
        a.submit_s = seconds_between(epoch, Clock::now());
        ids.push_back(out.answers.size());
        out.answers.push_back(std::move(a));
        futures.push_back(daemon.submit(std::move(request)));
      }
      in_flight.push_back(std::move(ids));
    }
    while (!in_flight.empty()) collect_oldest();
    const Clock::time_point now = Clock::now();
    const double pass_s = seconds_between(pass_start, now);
    out.pass_seconds.push_back(pass_s);
    out.pass_cpu_s.push_back(process_cpu_seconds() - pass_cpu_start);
    out.pass_requests.push_back(out.answers.size() - first);
    out.wall_s += pass_s;
    out.cpu_s += out.pass_cpu_s.back();

    const std::span<Answer> pass_answers(out.answers.data() + first,
                                         out.answers.size() - first);
    check_answers(pass_answers, w, data_dir);
    for (Answer& a : pass_answers) {
      if (keep_all || kept_keys.insert(a.key).second) continue;
      a.response.solution = {};
    }
  }
  out.peak_rss_mb = max_rss_mb();
  out.stats = counter_delta(daemon.stats(), before);
  return out;
}

// ---------------------------------------------------------------------------
// Layer replay

// Answer ids of one batch, in column order.
using Batch = std::vector<std::size_t>;

// The batch composition the list fixes: each job splits into max_batch
// chunks in submission order.
std::vector<Batch> planned_batches(const DaemonPass& run,
                                   const e2e::Workload& w) {
  std::vector<Batch> out;
  const std::size_t total = run.answers.size();
  for (std::size_t i = 0; i < total;) {
    std::size_t end = i;
    while (end < total && run.answers[end].pass == run.answers[i].pass &&
           run.answers[end].job == run.answers[i].job) {
      ++end;
    }
    for (std::size_t c = i; c < end; c += w.max_batch) {
      Batch batch;
      for (std::size_t id = c; id < std::min(end, c + w.max_batch); ++id) {
        batch.push_back(id);
      }
      out.push_back(std::move(batch));
    }
    i = end;
  }
  return out;
}

struct Replay {
  std::map<std::string, std::unique_ptr<rf::serve::ResidentEntry>> entries;
  std::vector<Batch> batches;          // span group g = batches[g]
  std::vector<double> batch_wall_s;    // per replayed batch
  std::vector<double> daemon_solve_s;  // the daemon's solve of that batch
  long iterations = 0;
  long batched_applies = 0;
  long column_applies = 0;
  std::size_t unplanned = 0;  // daemon batch_k differed from the plan
};

// Replays every planned batch (`every_batch`), or only the first answer of
// each key as a k=1 solve — batched columns are bit-identical to solo
// solves, so either way each replayed column must reproduce its answer
// bit for bit. Every batch the daemon served with a cold build is rebuilt
// inside its batch; other keys are built once as set-up.
void replay_answers(DaemonPass& run, const e2e::Workload& w,
                    const std::string& data_dir, bool every_batch,
                    long max_iterations, e2e::SpanLog& log, Replay* out) {
  std::set<std::string> seen;
  for (const Batch& planned : planned_batches(run, w)) {
    const Answer& head = run.answers[planned.front()];
    if (!every_batch && !seen.insert(head.key).second) continue;
    const Batch batch = every_batch ? planned : Batch{planned.front()};
    const e2e::Job& job = w.pass[head.job];
    const e2e::MatrixDef& def = e2e::matrix_def(job.matrix);
    const std::size_t group = out->batches.size();
    const bool cold = every_batch && !head.response.cache_hit;
    if (!cold && out->entries.count(head.key) == 0) {
      out->entries[head.key] = e2e::build_entry(def, data_dir, job, true, log,
                                                e2e::kSetupGroup);
    }
    const Clock::time_point start = Clock::now();
    if (cold) {
      out->entries[head.key] =
          e2e::build_entry(def, data_dir, job, true, log, group);
    }
    const rf::serve::ResidentEntry& entry = *out->entries[head.key];
    const std::size_t n = entry.backend->rows();
    const std::size_t k = batch.size();
    std::vector<double> b(k * n);
    std::vector<double> tolerances(k, job.tolerance);
    std::vector<std::uint64_t> noise_seeds(k);
    {
      // The daemon materializes seeded right-hand sides on dispatch.
      e2e::ScopedSpan span(log, "serve.rhs", group);
      for (std::size_t c = 0; c < k; ++c) {
        const Answer& a = run.answers[batch[c]];
        const std::vector<double> rhs = rf::serve::seeded_rhs(n, a.rhs_seed);
        std::copy(rhs.begin(), rhs.end(), b.begin() + static_cast<long>(c * n));
        noise_seeds[c] = a.noise_seed;
      }
    }
    const rf::solve::BatchedSolveResult result =
        e2e::replay_batch(entry, b, k, tolerances, std::move(noise_seeds),
                          max_iterations, log, group);
    out->batch_wall_s.push_back(seconds_between(start, Clock::now()));
    out->daemon_solve_s.push_back(head.response.latency.solve_seconds);
    out->batches.push_back(batch);
    if (every_batch && head.response.batch_k != k) ++out->unplanned;
    out->batched_applies += result.batched_applies;
    out->column_applies += result.column_applies;
    for (std::size_t c = 0; c < k; ++c) {
      const rf::solve::SolveResult& col = result.columns[c];
      Answer& a = run.answers[batch[c]];
      out->iterations += col.iterations;
      const long at =
          e2e::first_bit_mismatch(col.solution, a.response.solution);
      if (at >= 0 || col.status != a.response.solve_status ||
          col.iterations != a.response.iterations) {
        fail(a, "replay differs from the answer (status " +
                    std::string(rf::solve::status_name(col.status)) + ", " +
                    std::to_string(col.iterations) + " iterations, first " +
                    "differing entry " + std::to_string(at) + ")");
      }
    }
  }
}

// Off-path probes of two costs the replay cannot separate: the vector
// quantizer, and the ABFT check (the same sweep with and without the
// checksum attached, interleaved so drift hits both sides alike).
struct Probes {
  double quantize_s = 0.0;
  double quantize_cols = 0.0;
  double checked_s = 0.0;
  double unchecked_s = 0.0;
};

template <class F>
int reps_for(F&& f, double budget_s) {
  const Clock::time_point t0 = Clock::now();
  f();
  const double once = std::max(seconds_between(t0, Clock::now()), 1e-7);
  return std::clamp(static_cast<int>(budget_s / once), 3, 2000);
}

Probes run_probes(Replay& replay, std::uint64_t seed) {
  Probes p;
  for (auto& [key, owned] : replay.entries) {
    rf::serve::ResidentEntry& entry = *owned;
    const std::size_t n = entry.backend->cols();
    const std::vector<double> x = rf::serve::seeded_rhs(n, seed);
    std::vector<double> q(n);
    std::vector<double> y(entry.backend->rows());
    const auto quantize = [&] { entry.rf.quantize_vector(x, q); };
    const int qreps = reps_for(quantize, 0.02);
    const Clock::time_point t0 = Clock::now();
    for (int r = 0; r < qreps; ++r) quantize();
    p.quantize_s += seconds_between(t0, Clock::now());
    p.quantize_cols += qreps;

    const rf::core::AbftChecksum* attached = entry.backend->abft();
    rf::core::SweepVerdict verdict;
    const rf::core::SweepContext ctx{
        .seeds = {}, .sequences = {}, .verdict = &verdict};
    const auto sweep = [&] { entry.backend->sweep(x, 1, y, ctx); };
    const int sreps = reps_for(sweep, 0.02);
    for (int r = 0; r < sreps; ++r) {
      entry.backend->set_abft(nullptr);
      Clock::time_point t = Clock::now();
      sweep();
      p.unchecked_s += seconds_between(t, Clock::now());
      entry.backend->set_abft(attached);
      t = Clock::now();
      sweep();
      p.checked_s += seconds_between(t, Clock::now());
    }
  }
  return p;
}

// ---------------------------------------------------------------------------
// Metrics

double median_of(std::vector<double> v) {
  return rf::util::median(std::move(v));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The p-quantile as the mean of the sorted samples whose rank share lies
// within +-half_width of p. The samples cluster by matrix and job, and a
// plain percentile lands between two clusters, on the extreme sample of
// each; the window average moves smoothly when one sample crosses the
// boundary. Medians take the central 30% (on hot_batch that cut the
// run-to-run spread of latency_p50_ms from 8% to 3%); the p90 window is
// +-5%, so it never reaches below the 85th percentile.
constexpr double kMedianWindow = 0.15;
constexpr double kTailWindow = 0.05;

double window_quantile(std::vector<double> v, double p, double half_width) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const auto lo = static_cast<std::size_t>(
      std::max(0.0, std::floor((p - half_width) * n)));
  const auto hi =
      std::max(lo + 1, static_cast<std::size_t>(
                           std::min(n, std::ceil((p + half_width) * n))));
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

// The modeled accelerator time per right-hand side of one answer: its
// served iteration count and batch size through the arch timing model.
double modeled_ms(const Answer& a, const rf::serve::ResidentEntry& entry,
                  const e2e::Job& job) {
  const rf::arch::AcceleratorConfig config =
      rf::arch::refloat_config(entry.rf.format());
  const rf::arch::SolverProfile profile =
      std::strcmp(a.response.solver, "bicgstab") == 0
          ? rf::arch::bicgstab_profile()
          : rf::arch::cg_profile();
  const long long n = entry.rf.quantized().rows();
  const long k =
      static_cast<long>(std::max<std::size_t>(a.response.batch_k, 1));
  const rf::arch::SolveTime t =
      job.backend == rf::core::BackendKind::kBitTrue
          ? rf::arch::bit_true_batched_solve_time(
                config, entry.rf.nonzero_blocks(), n, a.response.iterations,
                profile, k)
          : rf::arch::accelerator_batched_solve_time(
                config, entry.rf.nonzero_blocks(), n, a.response.iterations,
                profile, k);
  return t.per_rhs_seconds * 1e3;
}

// Rates are medians over passes (every pass asks for the same work, so a
// slow stretch of a shared machine moves one pass, not the median);
// latencies and residuals are window quantiles over the whole run, and
// tts_geomean_ms the geometric mean of each key's windowed median.
std::vector<Metric> end_to_end_metrics(const DaemonPass& run,
                                       const e2e::Workload& w,
                                       const Replay& replay,
                                       const std::vector<double>& setup_s) {
  std::vector<double> rps, cpu_ms;
  for (std::size_t p = 0; p < run.pass_seconds.size(); ++p) {
    const double requests = static_cast<double>(run.pass_requests[p]);
    rps.push_back(requests / run.pass_seconds[p]);
    cpu_ms.push_back(run.pass_cpu_s[p] * 1e3 / requests);
  }
  std::vector<double> latency_ms;
  std::vector<double> residuals;
  std::vector<double> modeled;
  std::map<std::string, std::vector<double>> per_key_ms;
  for (const Answer& a : run.answers) {
    const double ms = a.response.latency.total_seconds * 1e3;
    latency_ms.push_back(ms);
    if (!a.error.empty()) continue;
    residuals.push_back(a.true_residual);
    per_key_ms[a.key].push_back(ms);
    modeled.push_back(
        modeled_ms(a, *replay.entries.at(a.key), w.pass[a.job]));
  }
  std::vector<double> key_medians;
  for (auto& [key, v] : per_key_ms) {
    key_medians.push_back(window_quantile(std::move(v), 0.5, kMedianWindow));
  }
  const std::size_t n = run.answers.size();
  return {
      {"throughput_rps", median_of(rps), "req/s", n},
      {"latency_p50_ms", window_quantile(latency_ms, 0.5, kMedianWindow), "ms",
       n},
      {"latency_p90_ms", window_quantile(latency_ms, 0.9, kTailWindow), "ms",
       n},
      {"tts_geomean_ms", rf::util::geomean(key_medians), "ms",
       key_medians.size()},
      {"true_residual_p50", window_quantile(residuals, 0.5, kMedianWindow),
       "ratio", residuals.size()},
      {"modeled_solve_ms", rf::util::mean(modeled), "ms", modeled.size()},
      {"cpu_ms_per_request", median_of(cpu_ms), "ms", n},
      {"peak_rss_mb", run.peak_rss_mb, "MB", 1},
      {"setup_s", median_of(setup_s), "s", setup_s.size()},
  };
}

// Per-layer metrics. The serve.* rows come from the daemon's own
// accounting (SolveResponse.latency and ServeStats) and cost nothing; the
// rest come from the replay's spans and probes, so they are only measured
// when every batch was replayed. Counts are per pass.
std::vector<Metric> per_layer_metrics(const DaemonPass& run,
                                      const e2e::Workload& w,
                                      const Replay& replay,
                                      const e2e::SpanLog& log,
                                      const Probes& probes) {
  const rf::serve::ServeStats& s = run.stats;
  const double passes = static_cast<double>(run.pass_seconds.size());
  const std::size_t answered = run.answers.size();
  std::vector<double> queue_ms, wait_ms, solve_ms, bittrue_ms, noisy_ms;
  double sum_total = 0.0, sum_build = 0.0, sum_solve = 0.0;
  for (const Answer& a : run.answers) {
    const rf::serve::LatencyBreakdown& l = a.response.latency;
    queue_ms.push_back(l.queue_seconds * 1e3);
    wait_ms.push_back(std::max(0.0, l.total_seconds - l.queue_seconds -
                                        l.build_seconds - l.solve_seconds) *
                      1e3);
    solve_ms.push_back(l.solve_seconds * 1e3);
    sum_total += l.total_seconds;
    sum_build += l.build_seconds;
    sum_solve += l.solve_seconds;
    const rf::core::BackendKind kind = w.pass[a.job].backend;
    if (kind == rf::core::BackendKind::kBitTrue) {
      bittrue_ms.push_back(l.total_seconds * 1e3);
    } else if (kind == rf::core::BackendKind::kNoisy) {
      noisy_ms.push_back(l.total_seconds * 1e3);
    }
  }
  const auto pct50 = [](const std::vector<double>& v) {
    return rf::util::percentile(v, 50.0);
  };

  // Span sums: builds over every build (set-up ones too); everything else
  // over replayed batches only.
  struct Sum {
    double wall = 0.0;
    double cols = 0.0;
    std::size_t calls = 0;
  };
  std::map<std::string, Sum> all, batch;
  Sum value_k1, value_kn;
  for (const e2e::Span& sp : log.spans()) {
    Sum& a = all[sp.name];
    a.wall += sp.wall_s;
    a.cols += static_cast<double>(sp.k);
    ++a.calls;
    if (sp.group == e2e::kSetupGroup) continue;
    Sum& g = batch[sp.name];
    g.wall += sp.wall_s;
    g.cols += static_cast<double>(sp.k);
    ++g.calls;
    if (std::strcmp(sp.name, "core.sweep.value") == 0) {
      Sum& v = sp.k == 1 ? value_k1 : value_kn;
      v.wall += sp.wall_s;
      v.cols += static_cast<double>(sp.k);
    }
  }
  const auto mean_ms = [&](const char* name) {
    const Sum& v = all[name];
    return v.calls == 0 ? 0.0 : v.wall * 1e3 / static_cast<double>(v.calls);
  };
  const auto us_per_col = [](const Sum& v) {
    return v.cols == 0.0 ? 0.0 : v.wall * 1e6 / v.cols;
  };
  const Sum& solve = batch["solvers.solve"];
  const double sweeps_wall = batch["core.sweep.value"].wall +
                             batch["core.sweep.noisy"].wall +
                             batch["hw.sweep.bittrue"].wall;
  const std::size_t sweep_calls = batch["core.sweep.value"].calls +
                                  batch["core.sweep.noisy"].calls +
                                  batch["hw.sweep.bittrue"].calls;
  double top_level = 0.0;
  for (const char* name : {"gen.load", "core.convert", "core.backend",
                           "hw.program", "core.checksum", "core.probe",
                           "serve.rhs", "solvers.solve"}) {
    top_level += batch[name].wall;
  }
  double replay_wall = 0.0, daemon_solve = 0.0, bittrue_latency = 0.0;
  for (std::size_t g = 0; g < replay.batches.size(); ++g) {
    replay_wall += replay.batch_wall_s[g];
    daemon_solve += replay.daemon_solve_s[g];
    const Answer& head = run.answers[replay.batches[g].front()];
    if (w.pass[head.job].backend == rf::core::BackendKind::kBitTrue) {
      double sum = 0.0;
      for (const std::size_t id : replay.batches[g]) {
        sum += run.answers[id].response.latency.total_seconds;
      }
      bittrue_latency += sum / static_cast<double>(replay.batches[g].size());
    }
  }
  double resident_bytes = 0.0;
  for (const auto& [key, entry] : replay.entries) {
    resident_bytes += static_cast<double>(entry->bytes);
  }
  const double per_req =
      answered == 0 ? 0.0 : 1e3 / static_cast<double>(answered);
  const double core_self =
      batch["core.convert"].wall + batch["core.backend"].wall +
      batch["core.checksum"].wall + batch["core.probe"].wall +
      batch["core.sweep.value"].wall + batch["core.sweep.noisy"].wall;
  const double hw_self =
      batch["hw.program"].wall + batch["hw.sweep.bittrue"].wall;
  const std::size_t n = answered;
  return {
      {"serve.queue_ms_p50", pct50(queue_ms), "ms", n},
      {"serve.batch_wait_ms_p50", pct50(wait_ms), "ms", n},
      {"serve.build_ms_mean", ratio(sum_build * 1e3, static_cast<double>(n)),
       "ms", n},
      {"serve.solve_ms_p50", pct50(solve_ms), "ms", n},
      {"serve.batch_k_mean", s.mean_batch_k(), "count", s.batches},
      {"serve.cache_hit_ratio",
       ratio(static_cast<double>(s.cache.hits),
             static_cast<double>(s.cache.hits + s.cache.misses)),
       "ratio", s.cache.hits + s.cache.misses},
      {"serve.cache_builds", static_cast<double>(s.cache.builds) / passes,
       "count", run.pass_seconds.size()},
      {"serve.cache_evictions", static_cast<double>(s.cache.evictions) / passes,
       "count", run.pass_seconds.size()},
      {"serve.retries", static_cast<double>(s.retries) / passes, "count",
       run.pass_seconds.size()},
      {"serve.shed",
       static_cast<double>(s.shed_queue_full + s.shed_deadline) / passes,
       "count", run.pass_seconds.size()},
      {"serve.solve_share", ratio(sum_solve, sum_total), "ratio", n},
      {"serve.build_share", ratio(sum_build, sum_total), "ratio", n},
      {"serve.bittrue_p50_ms", pct50(bittrue_ms), "ms", bittrue_ms.size()},
      {"serve.noisy_p50_ms", pct50(noisy_ms), "ms", noisy_ms.size()},
      {"gen.load_ms", mean_ms("gen.load"), "ms", all["gen.load"].calls},
      {"gen.self_ms_per_req", batch["gen.load"].wall * per_req, "ms", n},
      {"core.convert_ms", mean_ms("core.convert"), "ms",
       all["core.convert"].calls},
      {"core.checksum_ms", mean_ms("core.checksum"), "ms",
       all["core.checksum"].calls},
      {"core.probe_ms", mean_ms("core.probe"), "ms", all["core.probe"].calls},
      {"core.resident_mb", resident_bytes / (1024.0 * 1024.0), "MB",
       replay.entries.size()},
      {"core.sweep_us_per_col.value.k1", us_per_col(value_k1), "us",
       static_cast<std::size_t>(value_k1.cols)},
      {"core.sweep_us_per_col.value.kN", us_per_col(value_kn), "us",
       static_cast<std::size_t>(value_kn.cols)},
      {"core.sweep_us_per_col.noisy", us_per_col(batch["core.sweep.noisy"]),
       "us", static_cast<std::size_t>(batch["core.sweep.noisy"].cols)},
      {"core.quantize_us_per_col",
       ratio(probes.quantize_s * 1e6, probes.quantize_cols), "us",
       static_cast<std::size_t>(probes.quantize_cols)},
      {"core.abft_overhead_pct",
       ratio((probes.checked_s - probes.unchecked_s) * 100.0,
             probes.unchecked_s),
       "%", replay.entries.size()},
      {"core.sweep_calls", static_cast<double>(sweep_calls) / passes, "count",
       sweep_calls},
      {"core.self_ms_per_req", core_self * per_req, "ms", n},
      {"hw.program_ms", mean_ms("hw.program"), "ms", all["hw.program"].calls},
      {"hw.sweep_us_per_col.bittrue", us_per_col(batch["hw.sweep.bittrue"]),
       "us", static_cast<std::size_t>(batch["hw.sweep.bittrue"].cols)},
      {"hw.bittrue_sweep_share",
       ratio(batch["hw.sweep.bittrue"].wall, bittrue_latency), "ratio",
       bittrue_ms.size()},
      {"hw.self_ms_per_req", hw_self * per_req, "ms", n},
      {"solvers.iterations_total",
       static_cast<double>(replay.iterations) / passes, "count", n},
      {"solvers.vector_ops_share", ratio(solve.wall - sweeps_wall, solve.wall),
       "ratio", solve.calls},
      {"solvers.cols_per_apply",
       ratio(static_cast<double>(replay.column_applies),
             static_cast<double>(replay.batched_applies)),
       "count", static_cast<std::size_t>(replay.batched_applies)},
      {"solvers.self_ms_per_req", (solve.wall - sweeps_wall) * per_req, "ms",
       n},
      {"trace.coverage", ratio(top_level, replay_wall), "ratio",
       replay.batches.size()},
      {"trace.overhead_pct",
       ratio((solve.wall - daemon_solve) * 100.0, daemon_solve), "%",
       replay.batches.size()},
  };
}

// ---------------------------------------------------------------------------
// Output

struct RunInfo {
  const Options* options = nullptr;
  const e2e::Workload* workload = nullptr;
  const DaemonPass* run = nullptr;
  const Replay* replay = nullptr;
  std::vector<double> setup_s;
  bool correct = false;
  std::size_t failed = 0;
  std::vector<std::string> errors;
};

std::string metrics_object(const std::vector<Metric>& metrics,
                           bool with_samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "" : ", ") + json_string(m.name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit);
    if (with_samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

void write_result(const std::string& path, const RunInfo& info,
                  const std::vector<Metric>& metrics) {
  const Options& o = *info.options;
  const e2e::Workload& w = *info.workload;
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  std::string setups;
  for (const double s : info.setup_s) {
    setups += (setups.empty() ? "" : ", ") + json_number(s);
  }
  std::string passes;
  for (const double s : info.run->pass_seconds) {
    passes += (passes.empty() ? "" : ", ") + json_number(s);
  }
  std::string errors;
  for (const std::string& e : info.errors) {
    errors += (errors.empty() ? "" : ", ") + json_string(e);
  }
  f << "{\n  \"workload\": " << json_string(w.name)
    << ",\n  \"seed\": " << o.seed << ",\n  \"trace\": " << (o.trace ? 1 : 0)
    << ",\n  \"smoke\": " << (o.smoke ? "true" : "false")
    << ",\n  \"correct\": " << (info.correct ? "true" : "false")
    << ",\n  \"attempted\": " << info.run->answers.size()
    << ",\n  \"failed\": " << info.failed << ",\n  \"errors\": [" << errors
    << "],\n  \"context\": {"
    << "\"git_sha\": " << json_string(o.git_sha)
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"pool_threads\": " << rf::util::ThreadPool::global().size()
    << ", \"simd_active_isa\": "
    << json_string(rf::core::simd_isa_name(rf::core::simd_active_isa()))
    << ", \"tiles\": " << kTiles << ", \"abft\": true"
    << ", \"build_type\": " << json_string(REFLOAT_E2E_BUILD_TYPE)
    << ", \"seed\": " << o.seed
    << ", \"run_seconds\": " << json_number(o.seconds)
    << ", \"jobs_in_flight\": " << w.jobs_in_flight
    << ", \"window_ms\": " << json_number(w.window_ms)
    << ", \"max_batch\": " << w.max_batch << ", \"cache_mb\": " << w.cache_mb
    << ", \"pass_seconds\": [" << passes << "]"
    << ", \"requests\": " << info.run->answers.size()
    << ", \"wall_s\": " << json_number(info.run->wall_s)
    << ", \"cpu_s\": " << json_number(info.run->cpu_s)
    << ", \"setup_s\": [" << setups << "]"
    << ", \"replayed_batches\": " << info.replay->batches.size()
    << ", \"unplanned_batches\": " << info.replay->unplanned
    << "},\n  \"metrics\": " << metrics_object(metrics, true) << "\n}\n";
}

void write_chrome_trace(const std::string& path, const DaemonPass& run,
                        const Replay& replay, const e2e::SpanLog& log) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  f << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": "
       "{\"name\": \"daemon pass\"}},\n";
  f << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, \"args\": "
       "{\"name\": \"layer replay\"}}";
  // Daemon pass: one async track per request id. The phases are laid out
  // from the daemon's latency breakdown in the order it runs them (queue,
  // batch wait, build, solve); only the total and the phase lengths are
  // measured.
  const auto async = [&](const char* name, std::size_t id, double from_us,
                         double to_us) {
    if (to_us <= from_us) return;
    f << ",\n{\"name\": \"" << name << "\", \"cat\": \"request\", \"ph\": "
      << "\"b\", \"id\": " << id << ", \"pid\": 1, \"tid\": 1, \"ts\": "
      << json_number(from_us) << "},\n{\"name\": \"" << name
      << "\", \"cat\": \"request\", \"ph\": \"e\", \"id\": " << id
      << ", \"pid\": 1, \"tid\": 1, \"ts\": " << json_number(to_us) << "}";
  };
  for (std::size_t id = 0; id < run.answers.size(); ++id) {
    const Answer& a = run.answers[id];
    const rf::serve::LatencyBreakdown& l = a.response.latency;
    const double t0 = a.submit_s * 1e6;
    const double end = t0 + l.total_seconds * 1e6;
    const double solve_start = end - l.solve_seconds * 1e6;
    const double build_start = solve_start - l.build_seconds * 1e6;
    async("request", id, t0, end);
    async("serve.queue", id, t0, t0 + l.queue_seconds * 1e6);
    async("serve.batch_wait", id, t0 + l.queue_seconds * 1e6, build_start);
    async("serve.build", id, build_start, solve_start);
    async("serve.solve", id, solve_start, end);
  }
  // Replay: one complete event per layer call, tagged with the request ids
  // of the batch it served.
  for (const e2e::Span& s : log.spans()) {
    std::string ids;
    if (s.group != e2e::kSetupGroup) {
      for (const std::size_t id : replay.batches[s.group]) {
        ids += (ids.empty() ? "" : ", ") + std::to_string(id);
      }
    }
    f << ",\n{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 2, "
      << "\"tid\": 1, \"ts\": " << json_number(s.start_s * 1e6)
      << ", \"dur\": " << json_number(s.wall_s * 1e6)
      << ", \"args\": {\"cpu_us\": " << json_number(s.cpu_s * 1e6)
      << ", \"k\": " << s.k << ", \"requests\": [" << ids << "]}}";
  }
  f << "\n]}\n";
}

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %-6s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

// ---------------------------------------------------------------------------

int run(const Options& o) {
  const Clock::time_point epoch = Clock::now();
  if (!e2e::checker_self_test()) {
    std::fprintf(stderr, "self-test FAILED: the answer checker does not "
                         "reject a solution with one ULP flipped\n");
    return 2;
  }
  std::printf("self-test: the answer checker rejects a one-ULP flip\n");
  e2e::Workload w;
  if (!e2e::make_workload(o.workload, &w)) {
    std::fprintf(stderr, "unknown workload \"%s\"\n", o.workload.c_str());
    return 2;
  }
  if (o.smoke) w = e2e::smoke_cut(w);
  const bool every_batch = o.trace || o.smoke;

  RunInfo info;
  info.options = &o;
  info.workload = &w;
  std::unique_ptr<Service> service;
  double setup_total_s = 0.0;
  for (int i = 0; i < (o.smoke ? 1 : kMaxSetups); ++i) {
    if (i >= kMinSetups && setup_total_s >= kSetupBudgetS) break;
    service.reset();
    const Clock::time_point t0 = Clock::now();
    service = set_up(w, o.data_root);
    info.setup_s.push_back(seconds_between(t0, Clock::now()));
    setup_total_s += info.setup_s.back();
  }
  const std::string& dir = service->data->path();
  const std::size_t passes =
      o.smoke ? 1 : e2e::passes_for(w, o.seconds);
  DaemonPass run =
      drive(*service->daemon, w, passes, o.seed, dir, every_batch, epoch);
  info.run = &run;
  // Free the daemon's residents before the replay builds its own.
  service->daemon.reset();

  e2e::SpanLog log(epoch);
  Replay replay;
  info.replay = &replay;
  replay_answers(run, w, dir, every_batch, service->config.max_iterations,
                 log, &replay);
  const Probes probes = every_batch ? run_probes(replay, o.seed) : Probes{};

  std::vector<Metric> e2e_metrics =
      end_to_end_metrics(run, w, replay, info.setup_s);
  // Without a full replay only the serve.* rows are measured.
  std::vector<Metric> layer_metrics;
  for (Metric& m : per_layer_metrics(run, w, replay, log, probes)) {
    if (every_batch || m.name.starts_with("serve.")) {
      layer_metrics.push_back(std::move(m));
    }
  }
  for (const Answer& a : run.answers) {
    if (a.error.empty()) continue;
    ++info.failed;
    if (info.errors.size() < 8) {
      info.errors.push_back("request " +
                            std::to_string(&a - run.answers.data()) + " (" +
                            a.key + "): " + a.error);
    }
  }
  for (const auto* metrics : {&e2e_metrics, &layer_metrics}) {
    for (const Metric& m : *metrics) {
      if (!std::isfinite(m.value)) {
        info.errors.push_back(m.name + " is not finite");
      }
    }
  }
  info.correct = info.failed == 0 && info.errors.empty();

  std::printf("workload %s, seed %llu: %zu requests in %zu passes (%.2f s "
              "wall, %.2f s CPU), %zu batches replayed, %zu answers failed\n",
              w.name.c_str(), static_cast<unsigned long long>(o.seed),
              run.answers.size(), run.pass_seconds.size(), run.wall_s,
              run.cpu_s, replay.batches.size(), info.failed);
  if (replay.unplanned > 0) {
    std::printf("note: %zu daemon batches differ from the planned "
                "composition\n",
                replay.unplanned);
  }
  for (const std::string& e : info.errors) std::printf("FAIL: %s\n", e.c_str());
  std::printf("end-to-end:\n");
  print_table(e2e_metrics);
  std::printf("per-layer:\n");
  print_table(layer_metrics);

  std::vector<Metric> all = e2e_metrics;
  all.insert(all.end(), layer_metrics.begin(), layer_metrics.end());
  if (!o.out.empty()) write_result(o.out, info, all);
  if (!o.trace_out.empty()) write_chrome_trace(o.trace_out, run, replay, log);

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              info.correct ? "true" : "false", run.answers.size(),
              info.failed,
              metrics_object(o.trace ? layer_metrics : e2e_metrics, false)
                  .c_str());
  std::fflush(stdout);
  return info.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string error;
  if (!parse_args(argc, argv, &o, &error)) {
    std::fprintf(stderr, "bench_e2e: %s\n", error.c_str());
    return 2;
  }
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}

// Serving-layer contract: a request answered inside a k-RHS batch is
// bit-identical to the same solve run solo (the lockstep drivers'
// guarantee carried end to end through the daemon), batches dispatch on
// window expiry / fullness / deadline exactly as specified, expired or
// inadmissible requests shed with the right status, and the threaded
// daemon survives concurrent submitters (the TSan target).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/gen/grid.h"
#include "src/serve/daemon.h"
#include "src/serve/tcp_server.h"
#include "src/solvers/batched.h"
#include "src/util/fault_injector.h"
#include "src/util/thread_pool.h"
#include "tests/reference_solvers.h"

namespace refloat::serve {
namespace {

using std::chrono::milliseconds;

sparse::Csr test_csr() {
  return gen::build_stencil(gen::laplace2d_5pt(16, 12)).shifted(0.15);
}

// Centering the spectrum pushes the operator indefinite — the
// probe-routing test's BiCGSTAB case.
sparse::Csr indefinite_csr() {
  return gen::build_stencil(gen::laplace2d_5pt(16, 12)).shifted(-4.0);
}

core::Format test_format() {
  core::Format fmt = core::default_format();
  fmt.b = 4;
  return fmt;
}

constexpr const char* kName = "laplace16x12";

ServeConfig manual_config() {
  ServeConfig config;
  config.manual_pump = true;
  config.max_batch = 4;
  config.batch_window_ms = 2.0;
  return config;
}

void register_test_matrix(SolverDaemon& daemon) {
  daemon.register_matrix(kName, test_format(), [] { return test_csr(); });
}

bool ready(const std::future<SolveResponse>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

std::future<SolveResponse> submit_rhs(SolverDaemon& daemon,
                                      std::vector<double> rhs,
                                      double tolerance = 1e-8) {
  SolveRequest request;
  request.matrix = kName;
  request.rhs = std::move(rhs);
  request.tolerance = tolerance;
  return daemon.submit(std::move(request));
}

std::vector<double> batch_column(const std::vector<double>& b, std::size_t n,
                                 std::size_t c) {
  return {b.begin() + static_cast<long>(c * n),
          b.begin() + static_cast<long>((c + 1) * n)};
}

// The serial reference a daemon answer must match bit for bit: the same
// options the daemon uses, differing only in the per-request tolerance.
solve::SolveResult solo_cg(std::span<const double> b, double tolerance) {
  const sparse::Csr a = test_csr();
  const core::RefloatMatrix rf(a, test_format());
  const auto backend = core::make_value_backend(rf);
  solve::SolveOptions options;
  options.tolerance = tolerance;
  options.record_trace = false;
  return solve::reference::cg(solve::reference::default_sweep(*backend), b,
                              options);
}

TEST(Serve, BatchedBitIdenticalToSolo) {
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t k = 4;
  const std::vector<double> b = solve::make_rhs_batch(a, k);

  std::vector<std::future<SolveResponse>> futures;
  for (std::size_t c = 0; c < k; ++c) {
    futures.push_back(submit_rhs(daemon, batch_column(b, n, c)));
  }
  // max_batch = 4: the batch is full, so the first pump dispatches it
  // without waiting out the window.
  daemon.pump(Clock::now());

  for (std::size_t c = 0; c < k; ++c) {
    ASSERT_TRUE(ready(futures[c])) << "column " << c;
    const SolveResponse got = futures[c].get();
    const solve::SolveResult want = solo_cg(batch_column(b, n, c), 1e-8);
    EXPECT_EQ(got.status, ResponseStatus::kOk);
    EXPECT_EQ(got.batch_k, k);
    EXPECT_STREQ(got.solver, "cg");
    EXPECT_EQ(got.solve_status, want.status) << "column " << c;
    EXPECT_EQ(got.iterations, want.iterations) << "column " << c;
    EXPECT_EQ(got.final_residual, want.final_residual) << "column " << c;
    ASSERT_EQ(got.solution.size(), want.solution.size());
    for (std::size_t i = 0; i < want.solution.size(); ++i) {
      ASSERT_EQ(got.solution[i], want.solution[i])
          << "column " << c << " row " << i;
    }
  }
  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.completed, k);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.max_batch_k, k);
}

TEST(Serve, BatchWindowExpiry) {
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 2);

  const TimePoint t0 = Clock::now();
  auto f0 = submit_rhs(daemon, batch_column(b, n, 0));
  auto f1 = submit_rhs(daemon, batch_column(b, n, 1));

  // Two of four: under max_batch, inside the window -> nothing dispatches.
  daemon.pump(t0);
  EXPECT_FALSE(ready(f0));
  EXPECT_FALSE(ready(f1));
  daemon.pump(t0 + milliseconds(1));
  EXPECT_FALSE(ready(f0));

  // Past the 2 ms window the partial batch goes out as one k=2 dispatch.
  daemon.pump(t0 + milliseconds(3));
  ASSERT_TRUE(ready(f0));
  ASSERT_TRUE(ready(f1));
  EXPECT_EQ(f0.get().batch_k, 2u);
  EXPECT_EQ(f1.get().batch_k, 2u);
  EXPECT_EQ(daemon.stats().batches, 1u);
}

TEST(Serve, MixedToleranceBatchMatchesEachSolo) {
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 3);
  const double tolerances[] = {1e-4, 1e-8, 1e-10};

  const TimePoint t0 = Clock::now();
  std::vector<std::future<SolveResponse>> futures;
  for (std::size_t c = 0; c < 3; ++c) {
    futures.push_back(submit_rhs(daemon, batch_column(b, n, c),
                                 tolerances[c]));
  }
  daemon.pump(t0);                    // enqueue into one group at t0
  daemon.pump(t0 + milliseconds(3));  // window expired -> one k=3 batch

  long prev_iterations = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    ASSERT_TRUE(ready(futures[c])) << "column " << c;
    const SolveResponse got = futures[c].get();
    const solve::SolveResult want =
        solo_cg(batch_column(b, n, c), tolerances[c]);
    EXPECT_EQ(got.batch_k, 3u);
    EXPECT_EQ(got.iterations, want.iterations) << "column " << c;
    EXPECT_EQ(got.final_residual, want.final_residual) << "column " << c;
    ASSERT_EQ(got.solution.size(), want.solution.size());
    for (std::size_t i = 0; i < want.solution.size(); ++i) {
      ASSERT_EQ(got.solution[i], want.solution[i])
          << "column " << c << " row " << i;
    }
    // Tighter tolerance in the same batch means strictly more iterations.
    EXPECT_GT(got.iterations, prev_iterations) << "column " << c;
    prev_iterations = got.iterations;
  }
  EXPECT_EQ(daemon.stats().batches, 1u);
}

TEST(Serve, DeadlineShedBeforeSolve) {
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 1);

  SolveRequest request;
  request.matrix = kName;
  request.rhs = batch_column(b, n, 0);
  request.deadline = Clock::now() - milliseconds(1);  // already expired
  auto future = daemon.submit(std::move(request));

  daemon.pump(Clock::now());
  ASSERT_TRUE(ready(future));
  const SolveResponse response = future.get();
  EXPECT_EQ(response.status, ResponseStatus::kShedDeadline);
  EXPECT_TRUE(response.solution.empty());
  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.shed_deadline, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(Serve, TightDeadlineDragsBatchForward) {
  // A member whose deadline lands before the window expiry dispatches the
  // whole batch at the deadline instead of shedding.
  SolverDaemon daemon(manual_config());  // 2 ms window
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 2);

  const TimePoint t0 = Clock::now();
  auto patient = submit_rhs(daemon, batch_column(b, n, 0));
  SolveRequest urgent;
  urgent.matrix = kName;
  urgent.rhs = batch_column(b, n, 1);
  urgent.deadline = t0 + milliseconds(1);
  auto tight = daemon.submit(std::move(urgent));

  daemon.pump(t0);
  EXPECT_FALSE(ready(patient));

  daemon.pump(t0 + milliseconds(1));  // deadline == now: dispatch, not shed
  ASSERT_TRUE(ready(patient));
  ASSERT_TRUE(ready(tight));
  EXPECT_EQ(patient.get().status, ResponseStatus::kOk);
  const SolveResponse urgent_response = tight.get();
  EXPECT_EQ(urgent_response.status, ResponseStatus::kOk);
  EXPECT_EQ(urgent_response.batch_k, 2u);
}

TEST(Serve, QueueShedsOnFull) {
  ServeConfig config = manual_config();
  config.queue_capacity = 2;
  SolverDaemon daemon(config);
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 1);

  auto f0 = submit_rhs(daemon, batch_column(b, n, 0));
  auto f1 = submit_rhs(daemon, batch_column(b, n, 0));
  auto f2 = submit_rhs(daemon, batch_column(b, n, 0));  // over capacity

  ASSERT_TRUE(ready(f2));  // answered immediately, never queued
  EXPECT_EQ(f2.get().status, ResponseStatus::kShedQueueFull);
  EXPECT_FALSE(ready(f0));
  EXPECT_EQ(daemon.stats().shed_queue_full, 1u);

  const TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));
  EXPECT_EQ(f0.get().status, ResponseStatus::kOk);
  EXPECT_EQ(f1.get().status, ResponseStatus::kOk);
}

TEST(Serve, UnknownMatrixAndBadRhs) {
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);

  SolveRequest unknown;
  unknown.matrix = "no_such_matrix";
  unknown.rhs = {1.0};
  auto f_unknown = daemon.submit(std::move(unknown));

  SolveRequest bad;
  bad.matrix = kName;
  bad.rhs = {1.0, 2.0};  // wrong dimension
  auto f_bad = daemon.submit(std::move(bad));

  const TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));
  EXPECT_EQ(f_unknown.get().status, ResponseStatus::kUnknownMatrix);
  EXPECT_EQ(f_bad.get().status, ResponseStatus::kBadRequest);
  EXPECT_EQ(daemon.stats().failed, 2u);
}

TEST(Serve, ProbeRoutesIndefiniteToBicgstab) {
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  daemon.register_matrix("indefinite", test_format(),
                         [] { return indefinite_csr(); });

  SolveRequest spd;
  spd.matrix = kName;
  spd.rhs_seed = 7;
  spd.want_solution = false;
  auto f_spd = daemon.submit(std::move(spd));

  SolveRequest indef;
  indef.matrix = "indefinite";
  indef.rhs_seed = 7;
  indef.tolerance = 1e-4;
  indef.want_solution = false;
  auto f_indef = daemon.submit(std::move(indef));

  const TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));
  const SolveResponse spd_response = f_spd.get();
  const SolveResponse indef_response = f_indef.get();
  EXPECT_EQ(spd_response.status, ResponseStatus::kOk);
  EXPECT_STREQ(spd_response.solver, "cg");
  EXPECT_EQ(indef_response.status, ResponseStatus::kOk);
  EXPECT_STREQ(indef_response.solver, "bicgstab");
}

TEST(Serve, BackendsBatchSeparatelyAndNoisyMatchesSolo) {
  // A value and a noisy request on the same matrix must NOT share a batch
  // (different batch_key) nor a residency entry, and the noisy answer is
  // bit-identical to a solo noisy solve with the request's noise_seed.
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 2);
  const double sigma = 1e-3;
  const std::uint64_t noise_seed = 77;

  SolveRequest value;
  value.matrix = kName;
  value.rhs = batch_column(b, n, 0);
  auto f_value = daemon.submit(std::move(value));

  SolveRequest noisy;
  noisy.matrix = kName;
  noisy.rhs = batch_column(b, n, 1);
  noisy.backend = core::BackendKind::kNoisy;
  noisy.noise_sigma = sigma;
  noisy.noise_seed = noise_seed;
  auto f_noisy = daemon.submit(std::move(noisy));

  const TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));

  const SolveResponse value_response = f_value.get();
  const SolveResponse noisy_response = f_noisy.get();
  EXPECT_EQ(value_response.status, ResponseStatus::kOk);
  EXPECT_STREQ(value_response.backend, "value");
  EXPECT_EQ(value_response.batch_k, 1u);  // never pooled across backends
  EXPECT_EQ(noisy_response.status, ResponseStatus::kOk);
  EXPECT_STREQ(noisy_response.backend, "noisy");
  EXPECT_EQ(noisy_response.batch_k, 1u);
  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.cache.resident_count, 2u);  // one entry per backend key

  const core::RefloatMatrix rf(a, test_format());
  const auto backend = core::make_noisy_backend(rf, sigma, noise_seed);
  solve::SolveOptions options;
  options.tolerance = 1e-8;
  options.record_trace = false;
  const solve::SolveResult want = solve::reference::cg(
      solve::reference::default_sweep(*backend), batch_column(b, n, 1),
      options);
  EXPECT_EQ(noisy_response.iterations, want.iterations);
  EXPECT_EQ(noisy_response.final_residual, want.final_residual);
  ASSERT_EQ(noisy_response.solution.size(), want.solution.size());
  for (std::size_t i = 0; i < want.solution.size(); ++i) {
    ASSERT_EQ(noisy_response.solution[i], want.solution[i]) << "row " << i;
  }
}

TEST(Serve, BitTrueRequestsServeDeterministically) {
  // The bit-true backend serves through the daemon (ideal datapath): the
  // same request twice hits the cached programmed image the second time
  // and returns the identical trajectory.
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);

  auto make_request = [] {
    SolveRequest request;
    request.matrix = kName;
    request.rhs_seed = 5;
    request.tolerance = 1e-6;
    request.backend = core::BackendKind::kBitTrue;
    return request;
  };

  auto first = daemon.submit(make_request());
  TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));
  const SolveResponse r1 = first.get();
  ASSERT_EQ(r1.status, ResponseStatus::kOk);
  EXPECT_STREQ(r1.backend, "bittrue");
  EXPECT_FALSE(r1.cache_hit);

  auto second = daemon.submit(make_request());
  t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));
  const SolveResponse r2 = second.get();
  ASSERT_EQ(r2.status, ResponseStatus::kOk);
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(r2.iterations, r1.iterations);
  EXPECT_EQ(r2.final_residual, r1.final_residual);
  ASSERT_EQ(r2.solution.size(), r1.solution.size());
  for (std::size_t i = 0; i < r1.solution.size(); ++i) {
    ASSERT_EQ(r2.solution[i], r1.solution[i]) << "row " << i;
  }
}

TEST(Serve, ShutdownFlushesPendingAndRejectsNew) {
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 1);

  auto pending = submit_rhs(daemon, batch_column(b, n, 0));
  daemon.shutdown();  // flushes: the queued request still solves

  ASSERT_TRUE(ready(pending));
  EXPECT_EQ(pending.get().status, ResponseStatus::kOk);

  auto rejected = submit_rhs(daemon, batch_column(b, n, 0));
  ASSERT_TRUE(ready(rejected));
  EXPECT_EQ(rejected.get().status, ResponseStatus::kShutdown);
}

TEST(Serve, SeededRhsIsDeterministicAndNormalized) {
  const std::vector<double> b1 = seeded_rhs(192, 42);
  const std::vector<double> b2 = seeded_rhs(192, 42);
  const std::vector<double> b3 = seeded_rhs(192, 43);
  ASSERT_EQ(b1.size(), 192u);
  EXPECT_EQ(b1, b2);
  EXPECT_NE(b1, b3);
  double norm_sq = 0.0;
  for (const double v : b1) norm_sq += v * v;
  EXPECT_NEAR(norm_sq, 1.0, 1e-12);
}

// The TSan target: many producers against the threaded daemon, a cold
// cache built exactly once under contention, every future fulfilled, and a
// clean join on shutdown.
TEST(Serve, ThreadedConcurrentSubmitters) {
  ServeConfig config;
  config.max_batch = 4;
  config.batch_window_ms = 1.0;
  SolverDaemon daemon(config);
  register_test_matrix(daemon);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> threads;
  std::vector<std::vector<std::future<SolveResponse>>> futures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&daemon, &futures, t] {
      for (int r = 0; r < kPerThread; ++r) {
        SolveRequest request;
        request.matrix = kName;
        request.rhs_seed =
            static_cast<std::uint64_t>(t) * 100u + static_cast<unsigned>(r);
        request.tolerance = 1e-6;
        request.want_solution = false;
        futures[static_cast<std::size_t>(t)].push_back(
            daemon.submit(std::move(request)));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  int completed = 0;
  for (auto& per_thread : futures) {
    for (auto& f : per_thread) {
      const SolveResponse response = f.get();  // every future resolves
      EXPECT_EQ(response.status, ResponseStatus::kOk);
      ++completed;
    }
  }
  EXPECT_EQ(completed, kThreads * kPerThread);

  daemon.shutdown();
  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(completed));
  // The cold matrix was built exactly once despite concurrent batches.
  EXPECT_EQ(stats.cache.builds, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
}

// --- Solve workers ----------------------------------------------------------

TEST(SolveWorkers, CountIsCoresOverPoolThreadsAtLeastOne) {
  EXPECT_EQ(solve_worker_count(4, 1), 4);
  EXPECT_EQ(solve_worker_count(4, 2), 2);
  EXPECT_EQ(solve_worker_count(4, 4), 1);  // the default: pool spans cores
  EXPECT_EQ(solve_worker_count(8, 3), 2);  // rounds down
  EXPECT_EQ(solve_worker_count(0, 1), 1);  // hardware_concurrency unknown
  EXPECT_EQ(solve_worker_count(0, 4), 1);
  EXPECT_EQ(solve_worker_count(4, 8), 1);  // pool larger than the machine
  EXPECT_EQ(solve_worker_count(2, 512), 1);
}

// A one-thread pool, so a threaded daemon gets one solve worker per core;
// the default pool comes back on exit. Declare it before the daemon: the
// pool must not be replaced while the daemon's workers sweep.
struct OnePoolThread {
  OnePoolThread() { util::ThreadPool::set_global_threads(1); }
  ~OnePoolThread() {
    util::ThreadPool::set_global_threads(util::ThreadPool::default_threads());
  }
};

std::size_t expected_workers() {
  return static_cast<std::size_t>(
      solve_worker_count(std::thread::hardware_concurrency(), 1));
}

SolveRequest keyed_request(core::BackendKind backend, std::uint64_t seed) {
  SolveRequest request;
  request.matrix = kName;
  request.rhs_seed = seed;
  request.noise_seed = 1000 + seed;
  request.backend = backend;
  request.noise_sigma = 1e-3;
  request.tolerance =
      backend == core::BackendKind::kBitTrue ? 1e-6 : 1e-8;
  return request;
}

void expect_same_answer(const SolveResponse& got, const SolveResponse& want,
                        std::size_t i) {
  EXPECT_EQ(got.status, want.status) << "request " << i;
  EXPECT_EQ(got.solve_status, want.solve_status) << "request " << i;
  EXPECT_STREQ(got.backend, want.backend) << "request " << i;
  EXPECT_EQ(got.iterations, want.iterations) << "request " << i;
  EXPECT_EQ(got.final_residual, want.final_residual) << "request " << i;
  ASSERT_EQ(got.solution.size(), want.solution.size()) << "request " << i;
  for (std::size_t r = 0; r < want.solution.size(); ++r) {
    ASSERT_EQ(got.solution[r], want.solution[r])
        << "request " << i << " row " << r;
  }
}

// One numeric field of /proc/self/status ("Threads", "VmSize" in KiB, ...),
// or -1 where that file is missing.
long proc_status(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stol(line.substr(field.size() + 1));
    }
  }
  return -1;
}

TEST(SolveWorkers, ThreadedDaemonStartsOnlyItsSolveWorkers) {
  const OnePoolThread pool;
  const long before = proc_status("Threads");
  if (before < 0) GTEST_SKIP() << "no /proc/self/status";
  {
    SolverDaemon daemon{ServeConfig{}};
    EXPECT_EQ(proc_status("Threads") - before,
              static_cast<long>(daemon.stats().solve_workers));
  }
  EXPECT_EQ(proc_status("Threads"), before);  // shutdown joined them all
}

TEST(SolveWorkers, InterleavedKeysMatchManualPump) {
  // Value, noisy and bit-true jobs interleaved: on the solve workers their
  // batches run side by side, and every answer is the manual pump's.
  const OnePoolThread pool;
  const core::BackendKind kinds[] = {core::BackendKind::kValue,
                                     core::BackendKind::kNoisy,
                                     core::BackendKind::kBitTrue};
  constexpr std::uint64_t kRequests = 12;

  std::vector<SolveResponse> want;
  {
    SolverDaemon manual(manual_config());
    register_test_matrix(manual);
    std::vector<std::future<SolveResponse>> futures;
    for (std::uint64_t i = 0; i < kRequests; ++i) {
      futures.push_back(manual.submit(keyed_request(kinds[i % 3], i)));
    }
    manual.shutdown();  // flushes every group
    for (auto& f : futures) want.push_back(f.get());
  }

  ServeConfig config;
  config.max_batch = 2;
  config.batch_window_ms = 1.0;
  SolverDaemon daemon(config);
  register_test_matrix(daemon);
  EXPECT_EQ(daemon.stats().solve_workers, expected_workers());
  std::vector<std::future<SolveResponse>> futures;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    futures.push_back(daemon.submit(keyed_request(kinds[i % 3], i)));
  }
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const SolveResponse got = futures[i].get();
    EXPECT_EQ(got.status, ResponseStatus::kOk) << "request " << i;
    expect_same_answer(got, want[i], i);
  }

  bool quit = false;
  const std::string reply = TcpServer::handle_line(daemon, "STATS", &quit);
  EXPECT_NE(reply.find(" workers=" + std::to_string(expected_workers())),
            std::string::npos)
      << reply;
}

TEST(SolveWorkers, OneKeyBatchesRunBackToBackAndMatchSolo) {
  // Eight requests on one key with max_batch 2: four full batches, each
  // waiting in the batcher until the one before it finished.
  const OnePoolThread pool;
  ServeConfig config;
  config.max_batch = 2;
  config.batch_window_ms = 60'000.0;  // only full batches dispatch
  SolverDaemon daemon(config);
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  constexpr std::size_t k = 8;
  const std::vector<double> b = solve::make_rhs_batch(a, k);

  std::vector<std::future<SolveResponse>> futures;
  for (std::size_t c = 0; c < k; ++c) {
    futures.push_back(submit_rhs(daemon, batch_column(b, n, c)));
  }
  for (std::size_t c = 0; c < k; ++c) {
    const SolveResponse got = futures[c].get();
    const solve::SolveResult want = solo_cg(batch_column(b, n, c), 1e-8);
    EXPECT_EQ(got.status, ResponseStatus::kOk) << "column " << c;
    EXPECT_EQ(got.batch_k, 2u) << "column " << c;
    EXPECT_EQ(got.solve_status, want.status) << "column " << c;
    EXPECT_EQ(got.iterations, want.iterations) << "column " << c;
    EXPECT_EQ(got.final_residual, want.final_residual) << "column " << c;
    ASSERT_EQ(got.solution, want.solution) << "column " << c;
  }
  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.batches, 4u);
  EXPECT_EQ(stats.max_batch_k, 2u);
  EXPECT_EQ(stats.cache.builds, 1u);
}

TEST(SolveWorkers, ShutdownAnswersGroupsWaitingOnABusyKey) {
  // Shutdown right after the burst: full batches are solving or waiting
  // for their busy key, and the odd request still waits out its window.
  // Every admitted future is answered before shutdown() returns.
  const OnePoolThread pool;
  ServeConfig config;
  config.max_batch = 2;
  config.batch_window_ms = 60'000.0;
  SolverDaemon daemon(config);
  register_test_matrix(daemon);
  daemon.register_matrix("laplace48x48", test_format(), [] {
    return gen::build_stencil(gen::laplace2d_5pt(48, 48)).shifted(0.01);
  });

  std::vector<std::future<SolveResponse>> futures;
  for (std::uint64_t i = 0; i < 9; ++i) {
    SolveRequest request;
    request.matrix = i % 3 == 2 ? kName : "laplace48x48";
    request.rhs_seed = i;
    request.tolerance = 1e-8;
    request.want_solution = false;
    futures.push_back(daemon.submit(std::move(request)));
  }
  daemon.shutdown();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_TRUE(ready(futures[i])) << "request " << i;
    EXPECT_EQ(futures[i].get().status, ResponseStatus::kOk) << "request " << i;
  }
  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.completed, 9u);
  EXPECT_EQ(stats.batches, 5u);  // four full, one flushed at close
}

TEST(SolveWorkers, ShutdownFlushesAFullBatcherWithoutWaitingOutWindows) {
  // The batcher holds queue_capacity requests (four over two keys, no
  // group full). shutdown() flushes them all at once instead of waiting
  // out the minute-long window.
  const OnePoolThread pool;
  ServeConfig config;
  config.queue_capacity = 4;
  config.max_batch = 4;
  config.batch_window_ms = 60'000.0;
  SolverDaemon daemon(config);
  register_test_matrix(daemon);
  daemon.register_matrix("laplace48x48", test_format(), [] {
    return gen::build_stencil(gen::laplace2d_5pt(48, 48)).shifted(0.01);
  });

  std::vector<std::future<SolveResponse>> futures;
  for (std::uint64_t i = 0; i < 4; ++i) {
    SolveRequest request;
    request.matrix = i < 3 ? kName : "laplace48x48";
    request.rhs_seed = i;
    request.tolerance = 1e-8;
    request.want_solution = false;
    futures.push_back(daemon.submit(std::move(request)));
  }
  const auto start = std::chrono::steady_clock::now();
  daemon.shutdown();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(30));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_TRUE(ready(futures[i])) << "request " << i;
    EXPECT_EQ(futures[i].get().status, ResponseStatus::kOk) << "request " << i;
  }
}

// A matrix whose build blocks until the test opens the gate, so its first
// batch holds the key busy for as long as the test needs.
struct BuildGate {
  std::shared_ptr<std::promise<void>> entered =
      std::make_shared<std::promise<void>>();
  std::promise<void> release;

  void register_on(SolverDaemon& daemon) {
    auto on_entry = entered;
    std::shared_future<void> opened = release.get_future().share();
    daemon.register_matrix("gated", test_format(), [on_entry, opened] {
      on_entry->set_value();
      opened.wait();
      return test_csr();
    });
  }
  void wait_entered() { entered->get_future().wait(); }
  void open() { release.set_value(); }
};

SolveRequest gated_request(std::uint64_t seed) {
  SolveRequest request;
  request.matrix = "gated";
  request.rhs_seed = seed;
  request.tolerance = 1e-8;
  request.want_solution = false;
  return request;
}

TEST(SolveWorkers, DeadlinePassedBehindABusyKeyIsShedNotSolved) {
  // The second request's batch is full at once but its key is busy; its
  // deadline passes before the key frees, so it is shed, not answered late.
  const OnePoolThread pool;
  ServeConfig config;
  config.max_batch = 1;
  config.batch_window_ms = 60'000.0;
  SolverDaemon daemon(config);
  BuildGate gate;
  gate.register_on(daemon);

  auto first = daemon.submit(gated_request(0));
  gate.wait_entered();
  SolveRequest late = gated_request(1);
  const TimePoint deadline = Clock::now() + milliseconds(20);
  late.deadline = deadline;
  auto second = daemon.submit(std::move(late));
  std::this_thread::sleep_until(deadline + milliseconds(5));
  gate.open();

  EXPECT_EQ(first.get().status, ResponseStatus::kOk);
  EXPECT_EQ(second.get().status, ResponseStatus::kShedDeadline);
  daemon.shutdown();
  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.shed_deadline, 1u);
}

TEST(SolveWorkers, BusyKeyGroupKeepsFillingTowardMaxBatch) {
  // Four requests arrive one window apart while their key is busy: they
  // stay one group and solve as one batch of four once the key frees.
  const OnePoolThread pool;
  ServeConfig config;
  config.max_batch = 4;
  config.batch_window_ms = 1.0;
  SolverDaemon daemon(config);
  BuildGate gate;
  gate.register_on(daemon);

  auto first = daemon.submit(gated_request(0));
  gate.wait_entered();
  std::vector<std::future<SolveResponse>> rest;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    rest.push_back(daemon.submit(gated_request(i)));
    std::this_thread::sleep_for(milliseconds(5));
  }
  gate.open();

  EXPECT_EQ(first.get().batch_k, 1u);
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const SolveResponse got = rest[i].get();
    EXPECT_EQ(got.status, ResponseStatus::kOk) << "request " << i;
    EXPECT_EQ(got.batch_k, 4u) << "request " << i;
  }
  EXPECT_EQ(daemon.stats().batches, 2u);
}

TEST(SolveWorkers, AdmissionShedsOnceTheBatcherHoldsQueueCapacity) {
  // While the first request solves, the batcher takes queue_capacity more;
  // the next request is shed at submit, not buffered without bound.
  const OnePoolThread pool;
  ServeConfig config;
  config.queue_capacity = 2;
  config.max_batch = 1;
  config.batch_window_ms = 60'000.0;
  SolverDaemon daemon(config);
  BuildGate gate;
  gate.register_on(daemon);

  std::vector<std::future<SolveResponse>> admitted;
  admitted.push_back(daemon.submit(gated_request(0)));
  gate.wait_entered();  // request 0 left the batcher for a worker
  admitted.push_back(daemon.submit(gated_request(1)));
  admitted.push_back(daemon.submit(gated_request(2)));
  auto overflow = daemon.submit(gated_request(3));
  ASSERT_TRUE(ready(overflow));
  EXPECT_EQ(overflow.get().status, ResponseStatus::kShedQueueFull);
  gate.open();

  for (std::size_t i = 0; i < admitted.size(); ++i) {
    EXPECT_EQ(admitted[i].get().status, ResponseStatus::kOk) << "request " << i;
  }
  EXPECT_EQ(daemon.stats().shed_queue_full, 1u);
}

// --- Fault tolerance: the retry/degrade ladder and the hardened wire ------

// Restores the process-global injector to disarmed whatever the test does.
struct GlobalInjectorGuard {
  GlobalInjectorGuard() { util::FaultInjector::global().disable_all(); }
  ~GlobalInjectorGuard() { util::FaultInjector::global().disable_all(); }
};

TEST(ServeFaults, CorruptedSolveRecoversBitIdentically) {
  // One transient sweep corruption (rate 1, budget 1): the first apply of
  // the batch is flagged by ABFT, the ladder's rung-1 clean re-solve runs
  // with the budget spent, and the answer is bit-identical to the
  // fault-free solo solve — the corrupted output never touched x.
  GlobalInjectorGuard guard;
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 1);

  ASSERT_TRUE(
      util::FaultInjector::global().configure_from_text("sweep:1:40:1"));
  auto future = submit_rhs(daemon, batch_column(b, n, 0));
  const TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));

  ASSERT_TRUE(ready(future));
  const SolveResponse got = future.get();
  const solve::SolveResult want = solo_cg(batch_column(b, n, 0), 1e-8);
  EXPECT_EQ(got.status, ResponseStatus::kOk);
  EXPECT_EQ(got.solve_status, solve::SolveStatus::kConverged);
  EXPECT_EQ(got.retries, 1);
  EXPECT_FALSE(got.degraded);
  EXPECT_STREQ(got.backend, "value");
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.final_residual, want.final_residual);
  ASSERT_EQ(got.solution.size(), want.solution.size());
  for (std::size_t i = 0; i < want.solution.size(); ++i) {
    ASSERT_EQ(got.solution[i], want.solution[i]) << "row " << i;
  }

  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.abft_failures, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.recovered, 1u);
  EXPECT_EQ(stats.degraded, 0u);
}

TEST(ServeFaults, BitTrueLadderReprogramsThenDegrades) {
  // Budget 4 walks a bit-true request down the whole ladder: the initial
  // solve corrupts (1), the rung-1 re-solve corrupts (2), the rung-2
  // reprogrammed image corrupts (3), the rung-3 rebuilt resident corrupts
  // (4), and the rung-4 degraded noisy view finally answers clean. The
  // response carries the view that answered.
  GlobalInjectorGuard guard;
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);

  ASSERT_TRUE(
      util::FaultInjector::global().configure_from_text("sweep:1:41:4"));
  SolveRequest request;
  request.matrix = kName;
  request.rhs_seed = 5;
  request.tolerance = 1e-6;
  request.backend = core::BackendKind::kBitTrue;
  auto future = daemon.submit(std::move(request));
  const TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));

  ASSERT_TRUE(ready(future));
  const SolveResponse got = future.get();
  EXPECT_EQ(got.status, ResponseStatus::kOk);
  EXPECT_EQ(got.solve_status, solve::SolveStatus::kConverged);
  EXPECT_EQ(got.retries, 4);
  EXPECT_TRUE(got.degraded);
  EXPECT_STREQ(got.backend, "noisy");

  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.abft_failures, 4u);
  EXPECT_EQ(stats.reprograms, 1u);
  EXPECT_EQ(stats.rebuilds, 1u);
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.recovered, 1u);
}

TEST(ServeFaults, LadderShedsWhenDeadlineCannotFitRetry) {
  // The request dispatches (its deadline is still ahead of the batcher's
  // logical clock) but real time has already passed it, so the ladder's
  // pre-attempt deadline check sheds instead of answering late.
  GlobalInjectorGuard guard;
  ServeConfig config = manual_config();
  config.max_batch = 1;  // full at one request: dispatches on first pump
  SolverDaemon daemon(config);
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 1);

  ASSERT_TRUE(
      util::FaultInjector::global().configure_from_text("sweep:1:42"));
  const TimePoint t0 = Clock::now();
  SolveRequest request;
  request.matrix = kName;
  request.rhs = batch_column(b, n, 0);
  request.deadline = t0 + milliseconds(1);
  auto future = daemon.submit(std::move(request));

  std::this_thread::sleep_for(milliseconds(10));  // real clock passes deadline
  daemon.pump(t0);  // logical clock still before it: dispatch, not pre-shed

  ASSERT_TRUE(ready(future));
  const SolveResponse got = future.get();
  EXPECT_EQ(got.status, ResponseStatus::kShedDeadline);
  EXPECT_EQ(daemon.stats().shed_deadline, 1u);
  EXPECT_EQ(daemon.stats().recovered, 0u);
}

TEST(ServeFaults, AdmissionFaultShedsAtSubmit) {
  GlobalInjectorGuard guard;
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 1);

  ASSERT_TRUE(
      util::FaultInjector::global().configure_from_text("admission:1:43:1"));
  auto dropped = submit_rhs(daemon, batch_column(b, n, 0));
  ASSERT_TRUE(ready(dropped));  // answered at submit, never queued
  EXPECT_EQ(dropped.get().status, ResponseStatus::kShedQueueFull);

  // Budget spent: the next submit is admitted and solves normally.
  auto admitted = submit_rhs(daemon, batch_column(b, n, 0));
  const TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));
  EXPECT_EQ(admitted.get().status, ResponseStatus::kOk);
}

TEST(ServeFaults, BuildFaultFailsBatchLoudly) {
  GlobalInjectorGuard guard;
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 1);

  ASSERT_TRUE(
      util::FaultInjector::global().configure_from_text("build:1:44:1"));
  auto failed = submit_rhs(daemon, batch_column(b, n, 0));
  TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));
  ASSERT_TRUE(ready(failed));
  EXPECT_EQ(failed.get().status, ResponseStatus::kUnknownMatrix);

  // The single-flight marker was cleared: a later request rebuilds fine.
  auto retried = submit_rhs(daemon, batch_column(b, n, 0));
  t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));
  EXPECT_EQ(retried.get().status, ResponseStatus::kOk);
}

// Sets (value) or unsets (nullptr) one environment variable for a scope and
// restores its previous state on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(ServeFaults, FaultVerbRoundTrips) {
  GlobalInjectorGuard guard;
  const ScopedEnv allow("REFLOAT_FAULTS_ALLOW", "1");
  SolverDaemon daemon(manual_config());
  bool quit = false;

  std::string reply =
      TcpServer::handle_line(daemon, "FAULT sweep:0.5:9:10", &quit);
  EXPECT_EQ(reply.rfind("FAULT ", 0), 0u) << reply;
  EXPECT_NE(reply.find("sweep"), std::string::npos);
  EXPECT_TRUE(util::FaultInjector::global().armed(util::FaultSite::kSweep));

  reply = TcpServer::handle_line(daemon, "FAULT off", &quit);
  EXPECT_EQ(reply.rfind("FAULT", 0), 0u);
  EXPECT_FALSE(util::FaultInjector::global().any_armed());

  reply = TcpServer::handle_line(daemon, "FAULT warp:0.5", &quit);
  EXPECT_EQ(reply.rfind("ERR bad fault spec", 0), 0u) << reply;

  reply = TcpServer::handle_line(daemon, "STATS", &quit);
  EXPECT_NE(reply.find("abft_failures="), std::string::npos) << reply;
  EXPECT_NE(reply.find("retries="), std::string::npos);
  EXPECT_FALSE(quit);
}

TEST(ServeFaults, FaultVerbCannotArmWithoutOptIn) {
  GlobalInjectorGuard guard;
  SolverDaemon daemon(manual_config());
  bool quit = false;
  for (const char* setting : {static_cast<const char*>(nullptr), "0", "yes"}) {
    const ScopedEnv allow("REFLOAT_FAULTS_ALLOW", setting);
    const std::string reply =
        TcpServer::handle_line(daemon, "FAULT sweep:0.5:9:10", &quit);
    EXPECT_EQ(reply, "ERR fault injection disabled")
        << "REFLOAT_FAULTS_ALLOW=" << (setting ? setting : "(unset)");
    EXPECT_FALSE(util::FaultInjector::global().any_armed());
  }
  // Reporting and disarming stay available: neither can inject a fault.
  const ScopedEnv allow("REFLOAT_FAULTS_ALLOW", nullptr);
  EXPECT_EQ(TcpServer::handle_line(daemon, "FAULT", &quit).rfind("FAULT", 0),
            0u);
  EXPECT_EQ(
      TcpServer::handle_line(daemon, "FAULT off", &quit).rfind("FAULT", 0),
      0u);
  EXPECT_FALSE(quit);
}

TEST(ServeProtocol, DeadlineMsPastTheClockRangeIsRejected) {
  // now() + deadline_ms must fit the steady clock's int64 nanoseconds
  // (~9.2e12 ms): larger, infinite, negative or NaN deadlines are a parse
  // error, not a request shed against a wrapped-around deadline.
  ServeConfig config;
  config.max_batch = 1;
  SolverDaemon daemon(config);
  register_test_matrix(daemon);
  bool quit = false;
  const std::string solve = std::string("SOLVE ") + kName + " rhs=seed:1 ";
  for (const std::string dms : {"1e13", "1e30", "inf", "-1", "nan"}) {
    EXPECT_EQ(TcpServer::handle_line(daemon, solve + "deadline_ms=" + dms,
                                     &quit),
              "ERR bad deadline_ms \"" + dms + "\"");
  }
  const std::string reply =
      TcpServer::handle_line(daemon, solve + "deadline_ms=60000", &quit);
  EXPECT_EQ(reply.rfind("OK status=converged", 0), 0u) << reply;
  EXPECT_FALSE(quit);
}

TEST(ServeFaults, PlanCorruptionOnValueResidentIsCaughtAndRebuilt) {
  // The plan site damages the operand a value resident sweeps (one value
  // code of its packed operand) after the ABFT checksum was taken: the
  // first apply is flagged, the clean re-solve hits the same persistent
  // damage, and the rebuild rung (budget spent) answers bit-identically to
  // a fault-free solve.
  GlobalInjectorGuard guard;
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  const sparse::Csr a = test_csr();
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = solve::make_rhs_batch(a, 1);

  ASSERT_TRUE(
      util::FaultInjector::global().configure_from_text("plan:1:45:1"));
  auto future = submit_rhs(daemon, batch_column(b, n, 0));
  const TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));

  ASSERT_TRUE(ready(future));
  const SolveResponse got = future.get();
  const solve::SolveResult want = solo_cg(batch_column(b, n, 0), 1e-8);
  EXPECT_EQ(got.status, ResponseStatus::kOk);
  EXPECT_EQ(got.solve_status, solve::SolveStatus::kConverged);
  EXPECT_GE(got.retries, 1);
  EXPECT_FALSE(got.degraded);
  EXPECT_STREQ(got.backend, "value");
  ASSERT_EQ(got.solution.size(), want.solution.size());
  for (std::size_t i = 0; i < want.solution.size(); ++i) {
    ASSERT_EQ(got.solution[i], want.solution[i]) << "row " << i;
  }
  const ServeStats stats = daemon.stats();
  EXPECT_GE(stats.abft_failures, 1u);
  EXPECT_EQ(stats.rebuilds, 1u);
  EXPECT_EQ(stats.recovered, 1u);
}

// The plan site damages a resident's packed operand, which noisy backends
// sweep and bit-true backends program from. Serves `request` once with the
// plan-site `spec` armed and once on a fault-free daemon, and checks the
// faulty answer recovered through a rebuild, bit-identical to the clean
// one. Returns the faulty daemon's stats.
ServeStats serve_through_plan_fault(const SolveRequest& request,
                                    const char* spec, int expected_retries) {
  GlobalInjectorGuard guard;
  const auto serve_one = [&](SolverDaemon& daemon) {
    auto future = daemon.submit(SolveRequest(request));
    const TimePoint t0 = Clock::now();
    daemon.pump(t0);
    daemon.pump(t0 + milliseconds(3));
    EXPECT_TRUE(ready(future));
    return future.get();
  };
  SolverDaemon clean_daemon(manual_config());
  register_test_matrix(clean_daemon);
  const SolveResponse want = serve_one(clean_daemon);
  EXPECT_EQ(want.retries, 0);

  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  EXPECT_TRUE(util::FaultInjector::global().configure_from_text(spec));
  const SolveResponse got = serve_one(daemon);
  EXPECT_EQ(got.status, ResponseStatus::kOk);
  EXPECT_EQ(got.solve_status, solve::SolveStatus::kConverged);
  EXPECT_EQ(got.retries, expected_retries);
  EXPECT_FALSE(got.degraded);
  EXPECT_STREQ(got.backend, core::backend_kind_name(request.backend));
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.final_residual, want.final_residual);
  EXPECT_EQ(got.solution.size(), want.solution.size());
  for (std::size_t i = 0;
       i < std::min(got.solution.size(), want.solution.size()); ++i) {
    EXPECT_EQ(got.solution[i], want.solution[i]) << "row " << i;
  }
  return daemon.stats();
}

TEST(ServeFaults, PlanCorruptionOnNoisyResidentIsCaughtAndRebuilt) {
  // The noisy backend sweeps the damaged operand: the first solve is
  // flagged, the rung-1 re-solve hits the same persistent damage, and
  // the rung-2 rebuild (budget spent) answers bit-identically to a
  // fault-free solve.
  SolveRequest request;
  request.matrix = kName;
  request.rhs_seed = 3;
  request.backend = core::BackendKind::kNoisy;
  request.noise_sigma = 1e-3;
  request.noise_seed = 77;
  // The damage: one -1 entry becomes -inf.
  const ServeStats stats = serve_through_plan_fault(request, "plan:1:45:1", 2);
  EXPECT_EQ(stats.abft_failures, 2u);
  EXPECT_EQ(stats.rebuilds, 1u);
  EXPECT_EQ(stats.reprograms, 0u);
  EXPECT_EQ(stats.recovered, 1u);
}

TEST(ServeFaults, PlanCorruptionOnBitTrueResidentSurvivesReprogram) {
  // The bit-true image was programmed from the damaged operand: the first
  // solve and the rung-1 re-solve are flagged, the rung-2 reprogram
  // programs from the same damaged operand and is flagged too, and the
  // rung-3 rebuild answers bit-identically to a fault-free solve.
  SolveRequest request;
  request.matrix = kName;
  request.rhs_seed = 5;
  request.tolerance = 1e-6;
  request.backend = core::BackendKind::kBitTrue;
  // The damage: one 4 on the diagonal becomes 2^-1022.
  const ServeStats stats = serve_through_plan_fault(request, "plan:1:44:1", 3);
  EXPECT_EQ(stats.abft_failures, 3u);
  EXPECT_EQ(stats.reprograms, 1u);
  EXPECT_EQ(stats.rebuilds, 1u);
  EXPECT_EQ(stats.recovered, 1u);
}

TEST(ServeFaults, DamageThatSurvivesTheRebuildIsNotAnsweredAsConverged) {
  // Budget 2 damages the resident and its rebuild alike (seed 32: each
  // time one diagonal 4 becomes 2^-1022, a finite value). Every view reads
  // the damaged CSR, so the degraded value view must be checked against
  // the resident's checksum snapshot of the clean operand and fail too — a
  // checksum recomputed from the damaged operand would pass it. The ladder
  // runs out of rungs and answers corrupted, never converged.
  GlobalInjectorGuard guard;
  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  ASSERT_TRUE(
      util::FaultInjector::global().configure_from_text("plan:1:32:2"));
  SolveRequest request;
  request.matrix = kName;
  request.rhs_seed = 3;
  request.backend = core::BackendKind::kNoisy;
  request.noise_sigma = 1e-3;
  auto future = daemon.submit(std::move(request));
  const TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));

  ASSERT_TRUE(ready(future));
  const SolveResponse got = future.get();
  EXPECT_EQ(got.status, ResponseStatus::kOk);
  EXPECT_EQ(got.solve_status, solve::SolveStatus::kCorrupted);
  EXPECT_TRUE(got.degraded);
  EXPECT_STREQ(got.backend, "value");
  const ServeStats stats = daemon.stats();
  EXPECT_EQ(stats.rebuilds, 1u);
  EXPECT_EQ(stats.abft_failures, 4u);  // first solve + three rungs
  EXPECT_EQ(stats.recovered, 0u);
}

// --- Residency accounting --------------------------------------------------

// Serves one request of `kind` on `name` and returns the cache's resident
// bytes afterwards.
std::size_t serve_and_measure(SolverDaemon& daemon, const char* name,
                              core::BackendKind kind) {
  SolveRequest request;
  request.matrix = name;
  request.rhs_seed = 1;
  request.backend = kind;
  request.noise_sigma = 1e-3;
  auto future = daemon.submit(std::move(request));
  const TimePoint t0 = Clock::now();
  daemon.pump(t0);
  daemon.pump(t0 + milliseconds(3));
  EXPECT_TRUE(ready(future));
  EXPECT_EQ(future.get().status, ResponseStatus::kOk);
  return daemon.stats().cache.resident_bytes;
}

TEST(Residency, ValueResidentBudgetsCsrAndBlockIndexOnly) {
  const core::RefloatMatrix rf(test_csr(), test_format());
  ASSERT_GT(rf.block_index().bytes(), 0u);
  EXPECT_EQ(rf.resident_bytes(),
            rf.quantized().memory_bytes() + rf.block_index().bytes());

  SolverDaemon daemon(manual_config());
  register_test_matrix(daemon);
  EXPECT_EQ(serve_and_measure(daemon, kName, core::BackendKind::kValue),
            rf.resident_bytes());
}

TEST(Residency, NoisyResidentBudgetsCsrBlockIndexAndTileIndexOnly) {
  // The noisy view sweeps the packed operand band by band and keeps no
  // copy of it, so a noisy resident pins what a value resident pins: the
  // operand, the block index and, when tiled, the shard index.
  const core::RefloatMatrix rf(test_csr(), test_format());
  EXPECT_EQ(core::make_noisy_backend(rf, 1e-3, 1)->resident_bytes(), 0u);
  const std::size_t tile_index_bytes =
      core::TiledPlan::partition(rf, 4).index_bytes();
  ASSERT_GT(tile_index_bytes, 0u);

  SolverDaemon untiled(manual_config());
  register_test_matrix(untiled);
  EXPECT_EQ(serve_and_measure(untiled, kName, core::BackendKind::kNoisy),
            rf.resident_bytes());

  ServeConfig config = manual_config();
  config.tiles = 4;
  SolverDaemon tiled(config);
  register_test_matrix(tiled);
  EXPECT_EQ(serve_and_measure(tiled, kName, core::BackendKind::kNoisy),
            rf.resident_bytes() + tile_index_bytes);
}

TEST(Residency, CacheHoldsTwoValueResidentsAtExactlyTheirBytes) {
  // A cache of exactly the two residents' bytes holds both; one byte less
  // and serving the second evicts the first.
  const sparse::Csr a1 = test_csr();
  const sparse::Csr a2 = gen::build_stencil(gen::laplace2d_5pt(20, 20));
  const core::RefloatMatrix rf1(a1, test_format());
  const core::RefloatMatrix rf2(a2, test_format());
  for (const std::size_t slack : {std::size_t{0}, std::size_t{1}}) {
    ServeConfig config = manual_config();
    config.cache_bytes = rf1.resident_bytes() + rf2.resident_bytes() - slack;
    SolverDaemon daemon(config);
    register_test_matrix(daemon);
    daemon.register_matrix("laplace20x20", test_format(), [a2] { return a2; });
    serve_and_measure(daemon, kName, core::BackendKind::kValue);
    EXPECT_EQ(
        serve_and_measure(daemon, "laplace20x20", core::BackendKind::kValue),
        slack == 0 ? config.cache_bytes : rf2.resident_bytes());
    const ServeStats stats = daemon.stats();
    EXPECT_EQ(stats.cache.resident_count, slack == 0 ? 2u : 1u);
    EXPECT_EQ(stats.cache.evictions, slack == 0 ? 0u : 1u);
    EXPECT_EQ(stats.cache.oversize, 0u);
  }
}

// --- Recovery ladder policy ------------------------------------------------

// The rungs next_rung() picks for a column served on `served` whose every
// attempt ends `status`, applying each rung's state change as the daemon
// does, until kStop.
std::vector<Rung> ladder(core::BackendKind served, solve::SolveStatus status) {
  std::vector<Rung> rungs;
  core::BackendKind view = served;
  bool reprogrammed = false;
  bool rebuilt = false;
  for (int attempt = 1; rungs.size() < 16; ++attempt) {
    const Rung rung =
        next_rung(served, view, reprogrammed, rebuilt, attempt, status);
    rungs.push_back(rung);
    if (rung == Rung::kStop) break;
    if (rung == Rung::kReprogram) reprogrammed = true;
    if (rung == Rung::kRebuild) rebuilt = true;
    if (rung == Rung::kDegrade) {
      view = view == core::BackendKind::kBitTrue ? core::BackendKind::kNoisy
                                                 : core::BackendKind::kValue;
    }
  }
  return rungs;
}

TEST(Recovery, RungOrderPerBackendAndFailure) {
  using B = core::BackendKind;
  using S = solve::SolveStatus;
  using R = std::vector<Rung>;
  constexpr Rung kResolve = Rung::kResolve;
  constexpr Rung kReprogram = Rung::kReprogram;
  constexpr Rung kRebuild = Rung::kRebuild;
  constexpr Rung kDegrade = Rung::kDegrade;
  constexpr Rung kStop = Rung::kStop;
  EXPECT_EQ(ladder(B::kValue, S::kCorrupted), (R{kResolve, kRebuild, kStop}));
  EXPECT_EQ(ladder(B::kValue, S::kDiverged), (R{kResolve, kStop}));
  EXPECT_EQ(ladder(B::kNoisy, S::kCorrupted),
            (R{kResolve, kRebuild, kDegrade, kStop}));
  EXPECT_EQ(ladder(B::kNoisy, S::kStalled), (R{kResolve, kDegrade, kStop}));
  EXPECT_EQ(ladder(B::kBitTrue, S::kCorrupted),
            (R{kResolve, kReprogram, kRebuild, kDegrade, kDegrade, kStop}));
  EXPECT_EQ(ladder(B::kBitTrue, S::kBreakdown),
            (R{kResolve, kReprogram, kDegrade, kDegrade, kStop}));
}

// --- TCP hardening ---------------------------------------------------------

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  // Bound every test read so a server bug cannot hang the suite.
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

// Reads until '\n' (returned without it) or connection close / timeout.
std::string recv_line(int fd) {
  std::string line;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') return line;
    line.push_back(c);
  }
  return line;
}

TEST(TcpHardening, OversizedLineAnswersErrAndCloses) {
  SolverDaemon daemon(manual_config());
  TcpServer server(daemon);
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);

  const std::string flood(TcpServer::kMaxLineBytes + 1024, 'A');
  std::size_t off = 0;
  while (off < flood.size()) {
    const ssize_t n =
        ::send(fd, flood.data() + off, flood.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;  // server may already have slammed the door
    off += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(recv_line(fd), "ERR line too long");
  char c = 0;
  EXPECT_LE(::recv(fd, &c, 1, 0), 0);  // connection closed after the ERR
  ::close(fd);
}

TEST(TcpHardening, IdleConnectionIsDropped) {
  SolverDaemon daemon(manual_config());
  TcpServer server(daemon, /*port=*/0, /*idle_timeout_seconds=*/0.1);
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);

  // A live client still gets served...
  ASSERT_GT(::send(fd, "PING\n", 5, MSG_NOSIGNAL), 0);
  EXPECT_EQ(recv_line(fd), "PONG");
  // ...then goes silent past the idle timeout: the server hangs up (recv
  // sees EOF well inside the 5 s client-side read bound).
  char c = 0;
  EXPECT_LE(::recv(fd, &c, 1, 0), 0);
  ::close(fd);
}

// One PING / QUIT connection, read to the server's close.
void ping_quit(std::uint16_t port) {
  const int fd = connect_loopback(port);
  ASSERT_GE(fd, 0);
  ASSERT_GT(::send(fd, "PING\nQUIT\n", 10, MSG_NOSIGNAL), 0);
  EXPECT_EQ(recv_line(fd), "PONG");
  EXPECT_EQ(recv_line(fd), "BYE");
  char c = 0;
  EXPECT_LE(::recv(fd, &c, 1, 0), 0);
  ::close(fd);
}

TEST(TcpHardening, SequentialConnectionsDoNotGrowVirtualMemory) {
  // A finished connection's thread must be joined, not kept: an unjoined
  // thread keeps its whole stack mapped (8 MiB at the usual ulimit), so a
  // long-lived server would grow without bound.
  if (proc_status("VmSize") < 0) GTEST_SKIP() << "no /proc/self/status";
  SolverDaemon daemon(manual_config());
  TcpServer server(daemon);
  for (int i = 0; i < 4; ++i) ping_quit(server.port());  // warm the allocator
  const long before = proc_status("VmSize");
  constexpr int kConnections = 100;
  for (int i = 0; i < kConnections; ++i) ping_quit(server.port());
  const long grown_kib = proc_status("VmSize") - before;
  EXPECT_LT(grown_kib, 64L * 1024)
      << kConnections << " connections grew VmSize by " << grown_kib
      << " KiB";
}

}  // namespace
}  // namespace refloat::serve

// The threading determinism contract: sharding SpMV by block-row must be a
// pure scheduling change — every path (value-faithful, noisy, bit-true)
// produces bit-identical vectors at 1, 2, and 8 threads, including on odd
// block-row counts where shard claiming is maximally uneven.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "src/core/refloat_matrix.h"
#include "src/core/sweep_backend.h"
#include "src/gen/grid.h"
#include "src/hw/bit_true_backend.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace refloat {
namespace {

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = rng.gaussian();
  return x;
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(8, [&](std::size_t outer) {
    pool.parallel_for(8, [&](std::size_t inner) {
      hits[outer * 8 + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SingleThreadRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  long sum = 0;  // no synchronization: inline execution must be safe
  pool.parallel_for(100, [&](std::size_t i) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, SetGlobalThreadsResizes) {
  util::ThreadPool::set_global_threads(3);
  EXPECT_EQ(util::ThreadPool::global().size(), 3);
  util::ThreadPool::set_global_threads(1);
  EXPECT_EQ(util::ThreadPool::global().size(), 1);
}

// Runs `fn` once per thread count and asserts the 2- and 8-thread results
// are bit-identical (EXPECT_EQ on doubles — not NEAR) to the serial one.
void expect_bit_identical_across_threads(
    const std::function<std::vector<double>()>& fn) {
  util::ThreadPool::set_global_threads(1);
  const std::vector<double> serial = fn();
  for (const int threads : {2, 8}) {
    util::ThreadPool::set_global_threads(threads);
    const std::vector<double> parallel = fn();
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel[i], serial[i])
          << "row " << i << " at " << threads << " threads";
    }
  }
  util::ThreadPool::set_global_threads(1);
}

TEST(ThreadedSpmv, RefloatBitIdenticalAcrossThreadCounts) {
  const core::Format fmt{.b = 4, .e = 3, .f = 3, .ev = 3, .fv = 8};
  // 20x10 grid -> 200 rows -> 13 block-rows at b=4: odd, and not a multiple
  // of any tested thread count.
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(20, 10)).shifted(0.2);
  const core::RefloatMatrix rf(a, fmt);
  ASSERT_EQ(rf.block_index().block_rows(), 13u);
  const std::vector<double> x =
      random_vector(static_cast<std::size_t>(a.rows()), 101);
  const auto backend = core::make_value_backend(rf);
  expect_bit_identical_across_threads([&] {
    std::vector<double> y(x.size());
    backend->sweep(x, 1, y, {});
    return y;
  });
}

TEST(ThreadedSpmv, NoisyRefloatBitIdenticalAcrossThreadCounts) {
  const core::Format fmt{.b = 4, .e = 3, .f = 3, .ev = 3, .fv = 8};
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(20, 10)).shifted(0.2);
  const core::RefloatMatrix rf(a, fmt);
  const std::vector<double> x =
      random_vector(static_cast<std::size_t>(a.rows()), 102);
  const auto backend = core::make_noisy_backend(rf, /*sigma=*/0.05,
                                                /*seed=*/77);
  // One sweep of x under the explicit stream identity (77, sequence).
  const auto sweep = [&](std::uint64_t sequence) {
    const std::uint64_t seed = 77;
    std::vector<double> y(x.size());
    backend->sweep(x, 1, y,
                   {.seeds = {&seed, 1}, .sequences = {&sequence, 1}});
    return y;
  };
  expect_bit_identical_across_threads([&] { return sweep(3); });
  // And the noise stream is genuinely counter-based: a different sequence
  // gives a different vector.
  const std::vector<double> y3 = sweep(3);
  const std::vector<double> y4 = sweep(4);
  bool any_diff = false;
  for (std::size_t i = 0; i < y3.size(); ++i) {
    if (y3[i] != y4[i]) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ThreadedSpmv, HwSpmvBitIdenticalAcrossThreadCounts) {
  const core::Format fmt{.b = 4, .e = 3, .f = 3, .ev = 3, .fv = 8};
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(20, 10)).shifted(0.2);
  const core::RefloatMatrix rf(a, fmt);
  const std::vector<double> x =
      random_vector(static_cast<std::size_t>(a.rows()), 103);
  long long serial_ops = -1;
  expect_bit_identical_across_threads([&] {
    hw::BitTrueBackend backend(rf, hw::ClusterConfig{}, /*seed=*/55);
    std::vector<double> y(x.size());
    backend.sweep(x, 1, y, {});
    if (serial_ops < 0) {
      serial_ops = backend.hw().stats().crossbar_ops;
    } else {
      // The deterministic per-block-row stats reduction must match too.
      EXPECT_EQ(backend.hw().stats().crossbar_ops, serial_ops);
    }
    return y;
  });
}

TEST(ThreadedSpmv, NoisyHwSpmvBitIdenticalAcrossThreadCounts) {
  const core::Format fmt{.b = 4, .e = 3, .f = 3, .ev = 3, .fv = 8};
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(12, 12)).shifted(0.2);
  const core::RefloatMatrix rf(a, fmt);
  hw::ClusterConfig config;
  config.noise.sigma = 0.05;
  const std::vector<double> x =
      random_vector(static_cast<std::size_t>(a.rows()), 104);
  expect_bit_identical_across_threads([&] {
    hw::BitTrueBackend backend(rf, config, /*seed=*/56);
    std::vector<double> y(x.size());
    backend.sweep(x, 1, y, {});
    return y;
  });
}

TEST(DefinitenessProbe, SpdOperatorReadsPositive) {
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(16, 16)).shifted(0.2);
  const core::RefloatMatrix rf(a, core::default_format());
  const core::ConversionStats& stats = rf.probe_definiteness();
  EXPECT_GT(stats.probe_steps, 0);
  EXPECT_GT(stats.probe_lambda_min, 0.0);
  EXPECT_GT(stats.probe_lambda_max, stats.probe_lambda_min);
  EXPECT_FALSE(stats.likely_indefinite());
}

TEST(DefinitenessProbe, FlagsAnIndefiniteQuantizedOperator) {
  // An indefinite matrix (one strongly negative diagonal entry) must be
  // flagged — the mechanism behind predicting the Dubcova2 stall, where
  // coarse quantization itself pushes lambda_min below zero.
  std::vector<sparse::Triplet> triplets;
  for (sparse::Index i = 0; i < 64; ++i) triplets.push_back({i, i, 1.0});
  triplets[10].v = -2.0;
  const sparse::Csr a = sparse::Csr::from_triplets(64, 64, triplets);
  const core::RefloatMatrix rf(a, core::default_format());
  EXPECT_TRUE(rf.probe_definiteness().likely_indefinite());
}

}  // namespace
}  // namespace refloat

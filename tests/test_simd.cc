// The SIMD dispatch contract: every vector ISA's sweep and quantize
// kernels are BIT-IDENTICAL to the scalar reference — same IEEE multiply
// and add per output slot in the same order, no FMA contraction — at every
// thread count, including the rare-lane edge cases (signed zeros,
// denormals, inf/nan, overflow saturation, the f = 52 exact fallback) and
// the generic-K SpMM default path.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/refloat_matrix.h"
#include "src/core/simd.h"
#include "src/core/sweep_backend.h"
#include "src/gen/grid.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace refloat {
namespace {

using core::SimdIsa;

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = rng.gaussian();
  return x;
}

// Every ISA the machine can actually run (scalar always; avx2/neon when
// compiled in AND reported by cpuid).
std::vector<SimdIsa> runnable_isas() {
  std::vector<SimdIsa> isas = {SimdIsa::kScalar};
  for (const SimdIsa isa : {SimdIsa::kAvx2, SimdIsa::kNeon}) {
    if (core::simd_isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

class SimdRestore : public ::testing::Test {
 protected:
  void TearDown() override {
    core::simd_set_isa(core::simd_best_supported());
    util::ThreadPool::set_global_threads(1);
  }
};

using SimdSweep = SimdRestore;
using SimdQuantize = SimdRestore;

// A vector exercising every quantize_span lane class: normal in-window
// values, signed zeros, denormals, huge values (overflow saturation), tiny
// normals (underflow), inf/nan, and exact-tie mantissas for the
// round-to-even path.
std::vector<double> adversarial_vector(std::size_t n) {
  util::Rng rng(0xadf5);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 11) {
      case 0: x[i] = 0.0; break;
      case 1: x[i] = -0.0; break;
      case 2: x[i] = 5e-324; break;                    // smallest denormal
      case 3: x[i] = -1e-310; break;                   // denormal
      case 4: x[i] = 1e300; break;                     // far above window
      case 5: x[i] = -3e-12; break;                    // far below window
      case 6: x[i] = std::numeric_limits<double>::infinity(); break;
      case 7: x[i] = std::numeric_limits<double>::quiet_NaN(); break;
      case 8: x[i] = 1.0 + std::ldexp(1.5, -4); break;  // tie at f=3
      case 9: x[i] = std::ldexp(2.0 - std::ldexp(1.0, -3), 1); break;
      default: x[i] = rng.gaussian(); break;
    }
  }
  return x;
}

TEST_F(SimdQuantize, SpanBitIdenticalAcrossIsasAndPolicies) {
  const std::vector<double> x = adversarial_vector(1027);  // odd: tail lanes
  std::vector<core::QuantPolicy> policies;
  policies.push_back({});  // default: max anchor, gradual underflow
  policies.push_back(core::paper_literal_policy());
  core::QuantPolicy flush;
  flush.underflow = core::UnderflowMode::kFlushToZero;
  policies.push_back(flush);
  core::QuantPolicy clamp;
  clamp.underflow = core::UnderflowMode::kClampOffsetKeepFraction;
  clamp.overflow = core::OverflowMode::kClampOffsetKeepFraction;
  policies.push_back(clamp);

  for (const auto& policy : policies) {
    for (const int base : {-8, 0, 13}) {
      for (const auto& [e_bits, f_bits] : {std::pair{3, 3}, std::pair{3, 8},
                                           std::pair{5, 16}, std::pair{0, 3}}) {
        core::simd_set_isa(SimdIsa::kScalar);
        std::vector<double> expected(x.size());
        core::quantize_span(x, base, e_bits, f_bits, policy, expected);
        // The span must equal element-wise quantize_value regardless of ISA.
        for (std::size_t i = 0; i < x.size(); ++i) {
          const double exact = core::quantize_value(x[i], base, e_bits,
                                                    f_bits, policy, nullptr);
          if (std::isnan(exact)) {
            ASSERT_TRUE(std::isnan(expected[i]));
          } else {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(expected[i]),
                      std::bit_cast<std::uint64_t>(exact))
                << "scalar span vs quantize_value at " << i;
          }
        }
        for (const SimdIsa isa : runnable_isas()) {
          core::simd_set_isa(isa);
          std::vector<double> got(x.size());
          core::quantize_span(x, base, e_bits, f_bits, policy, got);
          for (std::size_t i = 0; i < x.size(); ++i) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                      std::bit_cast<std::uint64_t>(expected[i]))
                << core::simd_isa_name(isa) << " lane " << i << " value "
                << x[i] << " base " << base << " e " << e_bits << " f "
                << f_bits;
          }
        }
      }
    }
  }
}

TEST_F(SimdQuantize, F52FallbackStaysExactOnEveryIsa) {
  // f = 52 exceeds the magic-rounding range: quantize_span must take the
  // exact path before the kernel table is even consulted, identically on
  // every ISA.
  const std::vector<double> x = adversarial_vector(257);
  for (const SimdIsa isa : runnable_isas()) {
    core::simd_set_isa(isa);
    std::vector<double> got(x.size());
    core::quantize_span(x, 0, 0, 52, {}, got);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double exact = core::quantize_value(x[i], 0, 0, 52, {}, nullptr);
      if (std::isnan(exact)) {
        ASSERT_TRUE(std::isnan(got[i]));
      } else {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(exact))
            << core::simd_isa_name(isa) << " lane " << i;
      }
    }
  }
}

TEST_F(SimdQuantize, SignedZeroSegmentsSurviveEveryIsa) {
  std::vector<double> x(64, 0.0);
  for (std::size_t i = 1; i < x.size(); i += 2) x[i] = -0.0;
  for (const SimdIsa isa : runnable_isas()) {
    core::simd_set_isa(isa);
    std::vector<double> got(x.size(), 42.0);
    core::quantize_span(x, 0, 3, 3, {}, got);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(x[i]))
          << core::simd_isa_name(isa) << " lane " << i;
    }
  }
}

TEST_F(SimdSweep, SpmvBitIdenticalAcrossIsasAndThreadCounts) {
  const core::Format fmt{.b = 4, .e = 3, .f = 3, .ev = 3, .fv = 8};
  // 20x10 grid -> 13 block-rows at b=4: odd shard count.
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(20, 10)).shifted(0.2);
  const core::RefloatMatrix rf(a, fmt);
  const std::vector<double> x =
      random_vector(static_cast<std::size_t>(a.rows()), 901);

  core::simd_set_isa(SimdIsa::kScalar);
  util::ThreadPool::set_global_threads(1);
  std::vector<double> reference(x.size());
  core::make_value_backend(rf)->sweep(x, 1, reference, {});

  for (const SimdIsa isa : runnable_isas()) {
    core::simd_set_isa(isa);
    for (const int threads : {1, 2, 8}) {
      util::ThreadPool::set_global_threads(threads);
      std::vector<double> y(x.size());
      core::make_value_backend(rf)->sweep(x, 1, y, {});
      for (std::size_t i = 0; i < y.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(y[i]),
                  std::bit_cast<std::uint64_t>(reference[i]))
            << core::simd_isa_name(isa) << " row " << i << " at " << threads
            << " threads";
      }
    }
  }
}

TEST_F(SimdSweep, SpmmBitIdenticalForFixedAndGenericK) {
  const core::Format fmt{.b = 4, .e = 3, .f = 3, .ev = 3, .fv = 8};
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(20, 10)).shifted(0.2);
  const core::RefloatMatrix rf(a, fmt);
  const std::size_t n = static_cast<std::size_t>(a.rows());
  // 2/4/8/16 hit the fixed-width kernels; 3 and 5 the generic default path.
  for (const std::size_t k : {std::size_t{2}, std::size_t{3}, std::size_t{4},
                              std::size_t{5}, std::size_t{8},
                              std::size_t{16}}) {
    const std::vector<double> x = random_vector(n * k, 910 + k);
    core::simd_set_isa(SimdIsa::kScalar);
    util::ThreadPool::set_global_threads(1);
    std::vector<double> reference(n * k);
    core::make_value_backend(rf)->sweep(x, k, reference, {});
    for (const SimdIsa isa : runnable_isas()) {
      core::simd_set_isa(isa);
      for (const int threads : {1, 2, 8}) {
        util::ThreadPool::set_global_threads(threads);
        std::vector<double> y(n * k);
        core::make_value_backend(rf)->sweep(x, k, y, {});
        for (std::size_t i = 0; i < y.size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(y[i]),
                    std::bit_cast<std::uint64_t>(reference[i]))
              << core::simd_isa_name(isa) << " slot " << i << " k " << k
              << " at " << threads << " threads";
        }
      }
    }
  }
}

TEST_F(SimdSweep, EmptyBlockRowsAreNoOpsOnEveryIsa) {
  // 64x64 at b=4 with rows 16..31 entirely zero: the empty grid block-row
  // must stay a no-op shard on the vector paths too.
  std::vector<sparse::Triplet> triplets;
  for (sparse::Index i = 0; i < 64; ++i) {
    if (i >= 16 && i < 32) continue;
    triplets.push_back({i, i, 2.0 + 0.01 * static_cast<double>(i)});
    if (i + 1 < 64) triplets.push_back({i, i + 1, -0.5});
  }
  const sparse::Csr a = sparse::Csr::from_triplets(64, 64, triplets);
  core::Format fmt = core::default_format();
  fmt.b = 4;
  const core::RefloatMatrix rf(a, fmt);
  const std::vector<double> x = random_vector(64, 920);

  core::simd_set_isa(SimdIsa::kScalar);
  util::ThreadPool::set_global_threads(1);
  std::vector<double> reference(64);
  core::make_value_backend(rf)->sweep(x, 1, reference, {});

  for (const SimdIsa isa : runnable_isas()) {
    core::simd_set_isa(isa);
    for (const int threads : {1, 2, 8}) {
      util::ThreadPool::set_global_threads(threads);
      std::vector<double> y(64);
      core::make_value_backend(rf)->sweep(x, 1, y, {});
      for (std::size_t i = 0; i < 64; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(y[i]),
                  std::bit_cast<std::uint64_t>(reference[i]))
            << core::simd_isa_name(isa) << " row " << i;
      }
      for (std::size_t i = 16; i < 32; ++i) ASSERT_EQ(y[i], 0.0);
    }
  }
}

TEST_F(SimdSweep, AbftReduceBitIdenticalAcrossIsasAndLengths) {
  // The ABFT reduction's eight-lane split is pinned semantics (simd.h):
  // every ISA must produce bit-identical sums at every length, including
  // tails that are not a multiple of the lane count and the empty input.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{8}, std::size_t{1023},
                              std::size_t{4096}}) {
    const std::vector<double> w = random_vector(n, 0xabf7 + n);
    const std::vector<double> x = random_vector(n, 0x11 + n);
    const std::vector<double> y = random_vector(n + n / 2, 0x22 + n);
    double ref[4] = {};
    core::sweep_kernels_for(SimdIsa::kScalar)
        .abft_reduce(w.data(), x.data(), n, y.data(), y.size(), ref);
    for (const SimdIsa isa : runnable_isas()) {
      double got[4] = {};
      core::sweep_kernels_for(isa).abft_reduce(w.data(), x.data(), n,
                                               y.data(), y.size(), got);
      for (int s = 0; s < 4; ++s) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(ref[s]),
                  std::bit_cast<std::uint64_t>(got[s]))
            << "isa=" << core::simd_isa_name(isa) << " n=" << n
            << " sum=" << s;
      }
    }
  }
}

TEST(SimdDispatch, EnvOverrideAndClamping) {
  // simd_set_isa clamps unsupported requests to the best supported ISA.
  const SimdIsa best = core::simd_best_supported();
  EXPECT_TRUE(core::simd_isa_supported(best));
  EXPECT_TRUE(core::simd_isa_supported(SimdIsa::kScalar));
  // At most one of AVX2/NEON can be runnable on one machine.
  EXPECT_FALSE(core::simd_isa_supported(SimdIsa::kAvx2) &&
               core::simd_isa_supported(SimdIsa::kNeon));
  const SimdIsa got = core::simd_set_isa(SimdIsa::kScalar);
  EXPECT_EQ(got, SimdIsa::kScalar);
  EXPECT_EQ(core::simd_active_isa(), SimdIsa::kScalar);
  core::simd_set_isa(best);
  EXPECT_EQ(core::simd_active_isa(), best);
}

}  // namespace
}  // namespace refloat

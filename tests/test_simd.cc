// The SIMD dispatch contract: every vector ISA's sweep and quantize
// kernels are BIT-IDENTICAL to the scalar reference — same IEEE multiply
// and add per output slot in the same order, no FMA contraction — at every
// thread count, including the rare-lane edge cases (signed zeros,
// denormals, inf/nan, overflow saturation, the f = 52 exact fallback) and
// the generic-K SpMM default path.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
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
  // 2/4/8/16 hit the fixed-width kernels; 3, 5, 7, 12 and 15 the masked
  // vector kernels (one to four running sums) or a generic loop, and 17
  // the generic loop on every ISA.
  for (const std::size_t k : {std::size_t{2}, std::size_t{3}, std::size_t{4},
                              std::size_t{5}, std::size_t{7}, std::size_t{8},
                              std::size_t{12}, std::size_t{15},
                              std::size_t{16}, std::size_t{17}}) {
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

TEST_F(SimdSweep, AbftReduceLanesMatchesExtractedColumns) {
  // The interleaved lane reduction must give every column exactly the sums
  // abft_reduce gives that column extracted — on every ISA, for vector
  // groups and leftover columns alike, with tails not a multiple of eight.
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{4}, std::size_t{5}, std::size_t{8},
                              std::size_t{16}}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                std::size_t{8}, std::size_t{13},
                                std::size_t{127}, std::size_t{1000}}) {
      const std::size_t ny = n + n / 3;
      const std::vector<double> w = random_vector(n, 0x1a0e + n);
      const std::vector<double> x = random_vector(n * k, 0x2a0e + n + k);
      const std::vector<double> y = random_vector(ny * k, 0x3a0e + n + k);
      std::vector<double> want(4 * k);
      std::vector<double> xj(n);
      std::vector<double> yj(ny);
      for (std::size_t j = 0; j < k; ++j) {
        for (std::size_t i = 0; i < n; ++i) xj[i] = x[i * k + j];
        for (std::size_t i = 0; i < ny; ++i) yj[i] = y[i * k + j];
        core::sweep_kernels_for(SimdIsa::kScalar)
            .abft_reduce(w.data(), xj.data(), n, yj.data(), ny,
                         want.data() + 4 * j);
      }
      for (const SimdIsa isa : runnable_isas()) {
        std::vector<double> got(4 * k);
        core::sweep_kernels_for(isa).abft_reduce_lanes(
            w.data(), x.data(), n, y.data(), ny, k, got.data());
        for (std::size_t s = 0; s < 4 * k; ++s) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[s]),
                    std::bit_cast<std::uint64_t>(want[s]))
              << core::simd_isa_name(isa) << " k=" << k << " n=" << n
              << " column " << s / 4 << " sum " << s % 4;
        }
      }
    }
  }
}

// k column-major vectors of n entries mixing every lane class of the tile
// quantizer: normal values over a wide exponent range (so many fall below
// their segment's window and round gradually), signed zeros, denormals,
// inf and nan — plus, per column, one special segment: column 1's first
// segment all zero, column 2's only denormals, column 3's maximum a value
// whose mantissa carries past the window ceiling when rounded, and
// column 4 scaled to 2^-1000, where the window leaves the fast path's
// normal range and only quantize_value is exact.
std::vector<double> tile_operand(std::size_t n, std::size_t k,
                                 std::uint64_t seed) {
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -3.5e-310,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  util::Rng rng(seed);
  std::vector<double> x(n * k);
  for (std::size_t j = 0; j < k; ++j) {
    double* col = x.data() + j * n;
    for (std::size_t i = 0; i < n; ++i) {
      col[i] = rng.gaussian() *
               std::ldexp(1.0, static_cast<int>(rng.below(40)) - 20);
      if (rng.below(12) == 0) col[i] = specials[rng.below(std::size(specials))];
    }
    const std::size_t seg = std::min<std::size_t>(n, 128);
    if (j == 1) std::fill(col, col + seg, 0.0);
    if (j == 2) {
      for (std::size_t i = 0; i < seg; ++i) {
        col[i] = (i % 2 == 0 ? 1.0 : -1.0) * 1e-310 * static_cast<double>(i);
      }
    }
    if (j == 3) {
      for (std::size_t i = 0; i < seg; ++i) col[i] = std::ldexp(col[i], -30);
      col[seg / 2] = -0x1.ffffp+4;
    }
    if (j == 4) {
      for (std::size_t i = 0; i < n; ++i) col[i] = std::ldexp(col[i], -1000);
    }
  }
  return x;
}

TEST_F(SimdQuantize, TileQuantizerMatchesPerColumnQuantizeVector) {
  // RefloatMatrix::quantize_vectors (the tile kernel per segment for the
  // max-anchor policies, the gathered per-column path for kMeanEq5) must
  // give every column exactly what the scalar quantize_vector gives it
  // alone, on every ISA, for every width the vector groups split into.
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(4, 4)).shifted(0.2);
  core::QuantPolicy flush;
  flush.underflow = core::UnderflowMode::kFlushToZero;
  core::QuantPolicy clamp;
  clamp.underflow = core::UnderflowMode::kClampOffsetKeepFraction;
  clamp.overflow = core::OverflowMode::kClampOffsetKeepFraction;
  core::QuantPolicy symmetric;
  symmetric.window = core::WindowMode::kSymmetric;
  const struct {
    const char* name;
    core::QuantPolicy policy;
  } policies[] = {{"default", {}},
                  {"flush", flush},
                  {"clamp", clamp},
                  {"symmetric", symmetric},
                  {"kMeanEq5", core::paper_literal_policy()}};
  const core::Format formats[] = {
      core::default_format(),
      {.b = 7, .e = 2, .f = 3, .ev = 2, .fv = 3},
      {.b = 4, .e = 3, .f = 3, .ev = 3, .fv = 52},
  };
  for (const auto& p : policies) {
    for (const core::Format& fmt : formats) {
      const core::RefloatMatrix rf(a, fmt, p.policy);
      for (const std::size_t k :
           {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
            std::size_t{5}, std::size_t{8}, std::size_t{16}}) {
        for (const std::size_t n :
             {std::size_t{1}, std::size_t{7}, std::size_t{127},
              std::size_t{128}, std::size_t{129}, std::size_t{1000}}) {
          const std::vector<double> x = tile_operand(n, k, 31 * n + k);
          core::simd_set_isa(SimdIsa::kScalar);
          std::vector<double> want(n * k);
          std::vector<double> col(n);
          for (std::size_t j = 0; j < k; ++j) {
            rf.quantize_vector(std::span<const double>(x).subspan(j * n, n),
                               col);
            for (std::size_t i = 0; i < n; ++i) want[i * k + j] = col[i];
          }
          std::vector<double> batch(n * k);
          for (std::size_t j = 0; j < k; ++j) {
            for (std::size_t i = 0; i < n; ++i) batch[i * k + j] = x[j * n + i];
          }
          for (const SimdIsa isa : runnable_isas()) {
            core::simd_set_isa(isa);
            std::vector<double> got(n * k, 42.0);
            rf.quantize_vectors(batch, k, got);
            for (std::size_t s = 0; s < n * k; ++s) {
              ASSERT_EQ(std::bit_cast<std::uint64_t>(got[s]),
                        std::bit_cast<std::uint64_t>(want[s]))
                  << p.name << " fv=" << fmt.fv << " "
                  << core::simd_isa_name(isa) << " k=" << k << " n=" << n
                  << " row " << s / k << " column " << s % k << " x="
                  << batch[s];
            }
          }
        }
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

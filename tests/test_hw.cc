#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "src/core/refloat_matrix.h"
#include "src/core/spmv_plan.h"
#include "src/core/sweep_backend.h"
#include "src/gen/grid.h"
#include "src/hw/bit_true_backend.h"
#include "src/hw/engine.h"
#include "src/util/random.h"

namespace refloat::hw {
namespace {

TEST(CrossbarCluster, BitSerialMvmIsExactWithWideAdc) {
  // 8x8 integer matrix, codes < 2^5, inputs < 2^4: bit-true result must
  // equal the integer product when the ADC never clips.
  util::Rng rng(21);
  std::vector<std::vector<std::uint64_t>> m(8,
                                            std::vector<std::uint64_t>(8, 0));
  for (auto& row : m) {
    for (auto& v : row) {
      if (rng.uniform() < 0.5) v = rng.below(32);
    }
  }
  ClusterConfig config;
  config.adc.bits = 12;
  CrossbarCluster cluster(m, 5, config);
  std::vector<std::uint64_t> x(8);
  for (auto& v : x) v = rng.below(16);
  std::vector<std::int64_t> y(8);
  EngineStats stats;
  cluster.mvm(x, 4, y, &stats, rng);
  for (int r = 0; r < 8; ++r) {
    std::int64_t ref = 0;
    for (int c = 0; c < 8; ++c) {
      ref += static_cast<std::int64_t>(m[r][c]) *
             static_cast<std::int64_t>(x[c]);
    }
    EXPECT_EQ(y[r], ref) << "row " << r;
  }
  EXPECT_GT(stats.crossbar_ops, 0);
  EXPECT_EQ(stats.adc_clips, 0);
}

TEST(CrossbarCluster, NarrowAdcClips) {
  // All-ones 16-wide row with a 2-bit ADC: the popcount 16 must clip at 3.
  std::vector<std::vector<std::uint64_t>> m(
      1, std::vector<std::uint64_t>(16, 1));
  ClusterConfig config;
  config.adc.bits = 2;
  CrossbarCluster cluster(m, 1, config);
  std::vector<std::uint64_t> x(16, 1);
  std::vector<std::int64_t> y(1);
  EngineStats stats;
  util::Rng rng(1);
  cluster.mvm(x, 1, y, &stats, rng);
  EXPECT_EQ(y[0], 3);
  EXPECT_EQ(stats.adc_clips, 1);
}

// The dense (input bit x plane x row) loop that the occupancy index
// replaced, kept as the reference: every sample is popcounted and counted,
// and each nonzero one is noised and clipped in (q, p, r) order.
void dense_mvm(const CrossbarCluster& cluster, const ClusterConfig& config,
               int rows, int cols, const std::vector<std::uint64_t>& x,
               int x_bits, std::vector<std::int64_t>& y, EngineStats& stats,
               util::Rng& rng) {
  std::fill(y.begin(), y.end(), 0);
  const std::int64_t full_scale = (std::int64_t{1} << config.adc.bits) - 1;
  const int words = (cols + 63) / 64;
  std::vector<std::uint64_t> x_mask(static_cast<std::size_t>(words));
  for (int q = 0; q < x_bits; ++q) {
    std::fill(x_mask.begin(), x_mask.end(), 0);
    bool any = false;
    for (int c = 0; c < cols && c < static_cast<int>(x.size()); ++c) {
      if ((x[static_cast<std::size_t>(c)] >> q) & 1ull) {
        x_mask[static_cast<std::size_t>(c / 64)] |= 1ull << (c % 64);
        any = true;
      }
    }
    if (!any) continue;
    for (int p = 0; p < cluster.planes(); ++p) {
      for (int r = 0; r < rows; ++r) {
        const std::span<const std::uint64_t> row = cluster.plane_row(p, r);
        std::int64_t sample = 0;
        for (int w = 0; w < words; ++w) {
          sample += std::popcount(row[static_cast<std::size_t>(w)] &
                                  x_mask[static_cast<std::size_t>(w)]);
        }
        ++stats.crossbar_ops;
        if (sample == 0) continue;
        if (config.noise.sigma > 0.0) {
          sample = std::llround(static_cast<double>(sample) *
                                (1.0 + config.noise.sigma * rng.gaussian()));
          if (sample < 0) sample = 0;
        }
        if (sample > full_scale) {
          sample = full_scale;
          ++stats.adc_clips;
        }
        y[static_cast<std::size_t>(r)] += sample << (p + q);
      }
    }
  }
}

enum class Fill { kSparse, kZero, kFull };

std::vector<std::vector<std::uint64_t>> make_block(int rows, int cols,
                                                   int planes, Fill fill,
                                                   util::Rng& rng) {
  const std::uint64_t top = (std::uint64_t{1} << planes) - 1;
  std::vector<std::vector<std::uint64_t>> m(
      static_cast<std::size_t>(rows),
      std::vector<std::uint64_t>(static_cast<std::size_t>(cols), 0));
  if (fill == Fill::kZero) return m;
  for (auto& row : m) {
    for (auto& v : row) {
      if (fill == Fill::kFull) {
        v = top;
      } else if (rng.uniform() < 0.04) {
        // Small codes dominate, so high planes are sparser than low ones.
        v = rng.below(std::uint64_t{1} << (1 + rng.below(planes)));
      }
    }
  }
  return m;
}

TEST(CrossbarCluster, OccupancySkipMatchesDenseLoopBitForBit) {
  constexpr int kPlanes = 12;
  constexpr int kXBits = 17;
  ClusterConfig ideal;
  ClusterConfig noisy;
  noisy.noise.sigma = 0.02;
  ClusterConfig faulty;
  faulty.faults.stuck_at_zero_rate = 1e-2;
  faulty.faults.stuck_at_one_rate = 1e-2;
  faulty.noise.sigma = 0.02;
  ClusterConfig clipping;
  clipping.adc.bits = 4;
  struct Case {
    const char* name;
    ClusterConfig config;
    long long ecc_budget;  // < 0: no ECC scoreboard
  };
  const Case cases[] = {{"ideal", ideal, -1},
                        {"noise", noisy, -1},
                        {"faults+partial-ecc", faulty, 40},
                        {"adc4", clipping, -1}};
  struct Shape {
    int rows;
    int cols;
  };
  long long faulty_seen = 0;
  long long corrected_seen = 0;
  long long clips_seen = 0;
  util::Rng gen(2024);
  for (const Case& tc : cases) {
    for (const Shape shape : {Shape{128, 128}, Shape{40, 72}}) {
      for (const Fill fill : {Fill::kSparse, Fill::kZero, Fill::kFull}) {
        const auto m = make_block(shape.rows, shape.cols, kPlanes, fill, gen);
        long long budget = tc.ecc_budget;
        EccScoreboard scoreboard{&budget, {}};
        const CrossbarCluster cluster(m, kPlanes, tc.config,
                                      tc.ecc_budget >= 0 ? &scoreboard
                                                         : nullptr);
        faulty_seen += cluster.faulty_cells();
        corrected_seen += cluster.ecc_corrected();
        for (int trial = 0; trial < 3; ++trial) {
          std::vector<std::uint64_t> x(static_cast<std::size_t>(shape.cols));
          for (auto& v : x) {
            switch (trial) {
              case 0:  // bits at or above x_bits must be ignored
                v = gen.next();
                break;
              case 1:  // high input bits never active
                v = gen.below(256);
                break;
              default:  // mostly zero input
                v = gen.uniform() < 0.1 ? gen.below(1u << kXBits) : 0;
            }
          }
          const std::uint64_t seed = gen.next();
          util::Rng rng_fast(seed);
          util::Rng rng_ref(seed);
          const auto n_rows = static_cast<std::size_t>(shape.rows);
          std::vector<std::int64_t> y_fast(n_rows, -1);
          std::vector<std::int64_t> y_ref(n_rows, -1);
          EngineStats fast;
          EngineStats ref;
          cluster.mvm(x, kXBits, y_fast, &fast, rng_fast);
          dense_mvm(cluster, tc.config, shape.rows, shape.cols, x, kXBits,
                    y_ref, ref, rng_ref);
          SCOPED_TRACE(std::string(tc.name) + " " +
                       std::to_string(shape.rows) + "x" +
                       std::to_string(shape.cols) + " fill " +
                       std::to_string(static_cast<int>(fill)) + " trial " +
                       std::to_string(trial));
          EXPECT_EQ(y_fast, y_ref);
          EXPECT_EQ(fast.crossbar_ops, ref.crossbar_ops);
          EXPECT_EQ(fast.adc_clips, ref.adc_clips);
          EXPECT_EQ(rng_fast.next(), rng_ref.next());
          clips_seen += ref.adc_clips;
        }
      }
    }
  }
  // Every mechanism the skip must preserve was live.
  EXPECT_GT(faulty_seen, 0);
  EXPECT_GT(corrected_seen, 0);
  EXPECT_GT(clips_seen, 0);
}

TEST(CrossbarCluster, MemoryBytesCountOccupancyIndex) {
  // The index holds one count per plane plus one 16-bit entry per
  // (plane, row) bit-slice with any set bit, on top of the plane bits.
  constexpr int kRows = 128;
  constexpr int kCols = 128;
  constexpr int kPlanes = 12;
  util::Rng gen(77);
  for (const Fill fill : {Fill::kSparse, Fill::kZero, Fill::kFull}) {
    const auto m = make_block(kRows, kCols, kPlanes, fill, gen);
    std::size_t occupied = 0;
    for (int p = 0; p < kPlanes; ++p) {
      for (const auto& row : m) {
        occupied += std::any_of(row.begin(), row.end(),
                                [p](std::uint64_t v) { return (v >> p) & 1; })
                        ? 1
                        : 0;
      }
    }
    const std::size_t plane_bytes =
        std::size_t{kPlanes} * kRows * (kCols / 64) * sizeof(std::uint64_t);
    const std::size_t index_bytes =
        (kPlanes + occupied) * sizeof(std::uint16_t);
    const CrossbarCluster cluster(m, kPlanes);
    EXPECT_EQ(cluster.memory_bytes(), plane_bytes + index_bytes)
        << "fill " << static_cast<int>(fill);
  }
}

TEST(CrossbarCluster, RejectsRowsPastTheIndexWidth) {
  const std::vector<std::vector<std::uint64_t>> m(
      0x10000, std::vector<std::uint64_t>(1, 1));
  EXPECT_THROW(CrossbarCluster(m, 1), std::invalid_argument);
}

TEST(ProcessingEngine, MatchesRefloatQuantizedProduct) {
  // The bit-true engine on one block must reproduce quantize(A)*quantize(x)
  // exactly (wide ADC, no faults, no noise).
  const core::Format fmt{.b = 4, .e = 3, .f = 3, .ev = 3, .fv = 8};
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(4, 4)).shifted(0.2);  // 16 = 2^b
  const core::RefloatMatrix rf(a, fmt);
  ASSERT_EQ(rf.nonzero_blocks(), 1u);
  const int block_base = core::SpmvPlan::build(rf).base[0];

  std::vector<std::vector<double>> dense(16, std::vector<double>(16, 0.0));
  // Rebuild the raw block from the original matrix.
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  for (sparse::Index r = 0; r < a.rows(); ++r) {
    for (sparse::Index k = row_ptr[static_cast<std::size_t>(r)];
         k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      dense[static_cast<std::size_t>(r)][static_cast<std::size_t>(
          col_idx[static_cast<std::size_t>(k)])] =
          values[static_cast<std::size_t>(k)];
    }
  }

  ProcessingEngine engine(dense, block_base, fmt);
  util::Rng rng(33);
  std::vector<double> x(16);
  for (double& v : x) v = rng.gaussian();

  std::vector<double> y_hw(16, 0.0);
  engine.apply(x, y_hw, nullptr, rng);

  std::vector<double> y_ref(16, 0.0);
  core::make_value_backend(rf)->sweep(x, 1, y_ref, {});
  for (int i = 0; i < 16; ++i) {
    EXPECT_NEAR(y_hw[static_cast<std::size_t>(i)],
                y_ref[static_cast<std::size_t>(i)], 1e-12)
        << "row " << i;
  }
}

TEST(HwSpmv, MatchesValueBackendAcrossBlocks) {
  const core::Format fmt{.b = 4, .e = 3, .f = 3, .ev = 3, .fv = 8};
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(12, 12)).shifted(0.2);
  const core::RefloatMatrix rf(a, fmt);
  ASSERT_GT(rf.nonzero_blocks(), 1u);
  BitTrueBackend hw_backend(rf, ClusterConfig{});
  util::Rng rng(44);
  std::vector<double> x(static_cast<std::size_t>(a.rows()));
  for (double& v : x) v = rng.gaussian();
  std::vector<double> y_hw(x.size());
  hw_backend.sweep(x, 1, y_hw, {});
  std::vector<double> y_ref(x.size());
  core::make_value_backend(rf)->sweep(x, 1, y_ref, {});
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y_hw[i], y_ref[i], 1e-12);
  }
}

TEST(Faults, StuckAt0And1AreEquivalentInTheSignedEngine) {
  // bench_ablation_faults' observation, as a hard invariant: with identical
  // defect populations, losing a programmed bit in one quadrant equals
  // gaining it in the mirror quadrant.
  const core::Format fmt{.b = 4, .e = 3, .f = 3, .ev = 3, .fv = 8};
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(4, 4)).shifted(0.2);
  const core::RefloatMatrix rf(a, fmt);

  ClusterConfig sa0;
  sa0.faults.stuck_at_zero_rate = 5e-2;
  ClusterConfig sa1;
  sa1.faults.stuck_at_one_rate = 5e-2;

  BitTrueBackend hw0(rf, sa0);
  BitTrueBackend hw1(rf, sa1);
  std::vector<double> x(static_cast<std::size_t>(a.rows()));
  util::Rng xr(66);
  for (double& v : x) v = xr.gaussian();
  std::vector<double> y0(x.size());
  std::vector<double> y1(x.size());
  hw0.sweep(x, 1, y0, {});
  hw1.sweep(x, 1, y1, {});
  bool any_fault_effect = false;
  std::vector<double> y_clean(x.size());
  BitTrueBackend clean(rf, ClusterConfig{});
  clean.sweep(x, 1, y_clean, {});
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y0[i], y1[i], 1e-12);
    if (std::abs(y0[i] - y_clean[i]) > 1e-12) any_fault_effect = true;
  }
  // The rate is high enough that the fault injection itself must be live.
  EXPECT_TRUE(any_fault_effect);
}

}  // namespace
}  // namespace refloat::hw

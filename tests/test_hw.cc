#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/refloat_matrix.h"
#include "src/core/sweep_backend.h"
#include "src/core/tiled_plan.h"
#include "src/gen/grid.h"
#include "src/hw/bit_true_backend.h"
#include "src/hw/engine.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"
#include "tests/batch_layout.h"

// Counts every global operator new in this binary, so a test can assert
// that a warm path allocates nothing. Out of line: inlined into a
// new/delete pair, GCC would flag malloc/free as mismatched.
namespace {
std::atomic<long> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

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
  const int block_base = rf.block_index().base[0];

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


// --- The programmed image, pinned absolutely -------------------------------
// One FNV-1a digest per case over everything a bit-true backend exposes:
// the bits of a k = 1 and a k = 3 sweep (default noise stream), the engine
// stats after them, resident_bytes(), the engine and tile counts and every
// tile's fault / correction tallies, then the same after one reprogram().
// The digests were taken from the build that programmed its engines from an
// SoA block arena, so any change to which blocks get engines, how a block
// is densified, the programming order (ECC budget consumption, per-tile
// fault seeds) or the resident accounting fails here.

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void add(std::span<const double> ys) {
    for (const double y : ys) add(std::bit_cast<std::uint64_t>(y));
  }
};

void add_image(Fnv& fnv, const BitTrueBackend& backend) {
  const HwSpmv& hw = backend.hw();
  const EngineStats& s = hw.stats();
  for (const long long v :
       {s.crossbar_ops, s.adc_clips, s.faulty_cells, s.ecc_corrected}) {
    fnv.add(static_cast<std::uint64_t>(v));
  }
  fnv.add(backend.resident_bytes());
  fnv.add(hw.engines());
  fnv.add(static_cast<std::uint64_t>(hw.tile_count()));
  for (int t = 0; t < hw.tile_count(); ++t) {
    fnv.add(static_cast<std::uint64_t>(hw.tile_faulty_cells(t)));
    fnv.add(static_cast<std::uint64_t>(hw.tile_corrected_cells(t)));
  }
}

std::vector<double> pin_vector(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = rng.gaussian();
  return x;
}

// Sweeps k = 1 and k = 3, reprograms once and sweeps k = 3 again.
std::uint64_t image_digest(const core::RefloatMatrix& rf,
                           const ClusterConfig& config, int tiles) {
  const core::TiledPlan tiled =
      tiles > 0 ? core::TiledPlan::partition(rf, tiles) : core::TiledPlan{};
  BitTrueBackend backend(rf, config, kDefaultNoiseSeed, &tiled);
  const auto n = static_cast<std::size_t>(rf.quantized().rows());
  Fnv fnv;
  const std::vector<double> x1 = pin_vector(n, 91);
  const std::vector<double> x3 =
      testing::interleaved(pin_vector(3 * n, 92), 3);
  std::vector<double> y1(n);
  std::vector<double> y3(3 * n);
  backend.sweep(x1, 1, y1, {});
  fnv.add(y1);
  backend.sweep(x3, 3, y3, {});
  fnv.add(testing::columns(y3, 3));
  add_image(fnv, backend);
  backend.reprogram(5);
  backend.sweep(x3, 3, y3, {});
  fnv.add(testing::columns(y3, 3));
  add_image(fnv, backend);
  return fnv.h;
}

// A diagonal plus three random entries per row at magnitudes 2^-9..2^9.
sparse::Csr pin_scattered_matrix() {
  constexpr sparse::Index n = 700;
  util::Rng rng(73);
  std::vector<sparse::Triplet> triplets;
  for (sparse::Index r = 0; r < n; ++r) {
    triplets.push_back({r, r, 4.0});
    for (int i = 0; i < 3; ++i) {
      const auto c = static_cast<sparse::Index>(rng.below(n));
      triplets.push_back({r, c, rng.gaussian() * std::ldexp(1.0, i * 9 - 9)});
    }
  }
  return sparse::Csr::from_triplets(n, n, triplets);
}

// 40x40 at b = 3: band 0 indexes blocks at block columns 1 and 2 whose
// entries are all exact zeros (they quantize to nothing, yet keep their
// block and engine), band 3 (rows 24..31) is empty, and bands 1, 2 and 4
// carry ordinary blocks.
sparse::Csr flushed_block_matrix() {
  return sparse::Csr(
      40, 40,
      {0,  3,  5,  6,  6,  6,  6,  6,  6,  6,  7,  7,  7,  7,
       7,  7,  7,  8,  8,  8,  8,  8,  8,  8,  8,  8,  8,  8,
       8,  8,  8,  8,  8,  10, 12, 14, 16, 18, 20, 22, 24},
      {0,  9,  10, 1,  12, 20, 9,  17, 2,  32, 3,  33, 4,  34,
       5,  35, 6,  36, 7,  37, 8,  38, 9,  39},
      {1.0,  0.0,  -0.0, 2.0,  0.0,  0.0,  3.0,  4.0,  1.5,  5.0, 1.5, 5.0,
       -1.5, 5.0,  1.5,  5.0,  1.5,  5.0,  -1.5, 5.0,  1.5,  5.0, 1.5, 5.0});
}

TEST(HwSpmv, ImagePinnedToParent) {
  const sparse::Csr laplace24 =
      gen::build_stencil(gen::laplace2d_5pt(24, 24)).shifted(0.2);
  const sparse::Csr laplace37x29 =
      gen::build_stencil(gen::laplace2d_5pt(37, 29)).shifted(0.2);
  const sparse::Csr scattered = pin_scattered_matrix();
  const sparse::Csr flushed = flushed_block_matrix();
  ClusterConfig ideal;
  ClusterConfig faulty;
  faulty.faults.stuck_at_zero_rate = 3e-2;
  faulty.faults.stuck_at_one_rate = 1e-2;
  faulty.ecc.correct_cells = 40;
  ClusterConfig faulty_noisy = faulty;
  faulty_noisy.noise.sigma = 0.3;  // bites on 1-3 popcount samples
  const struct {
    const char* name;
    ClusterConfig config;
  } datapaths[] = {
      {"ideal", ideal}, {"faulty", faulty}, {"faulty+noise", faulty_noisy}};
  const auto with_b = [](int b) {
    core::Format fmt = core::default_format();
    fmt.b = b;
    return fmt;
  };
  // 30 fraction bits: 4.2 is not fp32-exact, so the operand is fp64-coded.
  const core::Format wide{.b = 4, .e = 2, .f = 30, .ev = 3, .fv = 8};
  struct Case {
    std::string name;
    const sparse::Csr* a;
    core::Format fmt;
  };
  std::vector<Case> cases;
  for (const auto& [name, a] :
       {std::pair{"laplace24", &laplace24},
        std::pair{"laplace37x29", &laplace37x29},
        std::pair{"scattered700", &scattered}}) {
    for (const int b : {3, 4, 7}) {
      cases.push_back({std::string(name) + " b=" + std::to_string(b), a,
                       with_b(b)});
    }
  }
  cases.push_back({"flushed block + empty band b=3", &flushed, with_b(3)});
  cases.push_back({"fp64 code laplace37x29 b=4", &laplace37x29, wide});

  // Three rows per case (ideal, faulty, faulty+noise), each monolithic,
  // one tile, four tiles: one tile is the monolithic build by design.
  const std::uint64_t pinned[] = {
      0xedef20fe4727c364ULL, 0xedef20fe4727c364ULL, 0x37a37ee73f5d44b4ULL,
      0x196dddbcdbf2d0a8ULL, 0x196dddbcdbf2d0a8ULL, 0x44a7ea26df6b8526ULL,
      0xa1a2b72c2af1694bULL, 0xa1a2b72c2af1694bULL, 0x115c969efb90a4f0ULL,
      0xad7ffef3ab64d39eULL, 0xad7ffef3ab64d39eULL, 0x246df76fd423f742ULL,
      0x66f51d8cbcb4c001ULL, 0x66f51d8cbcb4c001ULL, 0xc87eec0fc3d981a6ULL,
      0xaab4e48a4b54910bULL, 0xaab4e48a4b54910bULL, 0xc4656a4604603337ULL,
      0x98e2d5d1819f9568ULL, 0x98e2d5d1819f9568ULL, 0x1b3081c712066f30ULL,
      0x86724dfdf52cfd5bULL, 0x86724dfdf52cfd5bULL, 0x50bc08214b2b5d4cULL,
      0x2ed7dd4b413df989ULL, 0x2ed7dd4b413df989ULL, 0x7ff944319490fc50ULL,
      0xb199064b9ffd17a5ULL, 0xb199064b9ffd17a5ULL, 0x1ded6f361d873575ULL,
      0xb6f88c63926cdfbdULL, 0xb6f88c63926cdfbdULL, 0x8176ea4d734d9836ULL,
      0x9095aceddb0a7a3eULL, 0x9095aceddb0a7a3eULL, 0x88bd1b141ee29c4eULL,
      0x47048c4299f1cfbfULL, 0x47048c4299f1cfbfULL, 0x1ed184c2d26df463ULL,
      0x2c460a4c7dcbdbc1ULL, 0x2c460a4c7dcbdbc1ULL, 0x607841ec9e246803ULL,
      0x091277cc3039476cULL, 0x091277cc3039476cULL, 0xe935b067177e12d9ULL,
      0x9aceb2140c157f83ULL, 0x9aceb2140c157f83ULL, 0x4cadcd2e1921897bULL,
      0xccb4a7324e3d3fc6ULL, 0xccb4a7324e3d3fc6ULL, 0xdc33bca589ade394ULL,
      0x0bc25fff63d4b8b4ULL, 0x0bc25fff63d4b8b4ULL, 0x89fae52a2a183384ULL,
      0x0b4d849c68e754f8ULL, 0x0b4d849c68e754f8ULL, 0xdf27273dba356818ULL,
      0x53c5e40c77909897ULL, 0x53c5e40c77909897ULL, 0xce04e996403c5267ULL,
      0xe0e069906efe337bULL, 0xe0e069906efe337bULL, 0x6dfb243b98cce98bULL,
      0x0249ee0892b06e4cULL, 0x0249ee0892b06e4cULL, 0x415013bcb790efc8ULL,
      0xd13e5db4cdb94254ULL, 0xd13e5db4cdb94254ULL, 0xb50c76e731e6311cULL,
      0x55d4b19d070c9aa6ULL, 0x55d4b19d070c9aa6ULL, 0x182db1d66d34b2a9ULL,
      0x70fa5b74955f5644ULL, 0x70fa5b74955f5644ULL, 0x9232c38e30cae8c8ULL,
      0xd512a8a48ef29062ULL, 0xd512a8a48ef29062ULL, 0x316870535c6e9660ULL,
      0x87cd596102dcb8a9ULL, 0x87cd596102dcb8a9ULL, 0x48e8d22f1f945bddULL,
      0x8be0f29b677b93bcULL, 0x8be0f29b677b93bcULL, 0x749034787a76b8a4ULL,
      0xe748f9837ae0c1d9ULL, 0xe748f9837ae0c1d9ULL, 0xb95d376e3e139904ULL,
      0x9ff03c8291f82960ULL, 0x9ff03c8291f82960ULL, 0x7a0af08eb051237eULL,
      0x0987a12db56b9a91ULL, 0x0987a12db56b9a91ULL, 0x894bd1a732247a29ULL,
      0x674f687290d102e0ULL, 0x674f687290d102e0ULL, 0xa9d1fe2e001c3632ULL,
      0xd494f12bef3e6f12ULL, 0xd494f12bef3e6f12ULL, 0x7bf10967eaab0105ULL,
  };
  std::size_t i = 0;
  for (const Case& c : cases) {
    const core::RefloatMatrix rf(*c.a, c.fmt);
    if (c.a == &flushed) {
      ASSERT_EQ(rf.nonzero_blocks(), 8u);
      ASSERT_EQ(rf.block_index().block_ptr[3], rf.block_index().block_ptr[4]);
    }
    if (c.fmt.f == wide.f) {
      ASSERT_EQ(rf.quantized().code(), sparse::ValueCode::kFp64);
    }
    for (const auto& dp : datapaths) {
      for (const int tiles : {0, 1, 4}) {
        const std::uint64_t digest = image_digest(rf, dp.config, tiles);
        ASSERT_LT(i, std::size(pinned));
        EXPECT_EQ(digest, pinned[i])
            << c.name << ", " << dp.name << ", tiles " << tiles;
        ++i;
      }
    }
  }
  EXPECT_EQ(i, std::size(pinned));
}

TEST(HwSpmv, WarmBatchedSweepAllocatesNothing) {
  // Every per-sweep buffer of the bit-true path — the per block-row stats,
  // the per-thread engine scratch and segments, the noise bases, the ABFT
  // sums — is sized by the first sweep and reused: a second sweep of the
  // same batch width allocates nothing.
  util::ThreadPool::set_global_threads(1);
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(24, 24)).shifted(0.2);
  const core::RefloatMatrix rf(a, core::Format{.b = 4, .e = 3, .f = 3,
                                               .ev = 3, .fv = 8});
  ClusterConfig config;
  config.faults.stuck_at_zero_rate = 1e-2;
  config.noise.sigma = 1e-3;
  BitTrueBackend backend(rf, config);
  const core::AbftChecksum abft = core::make_abft_checksum(rf, 1.0);
  backend.set_abft(&abft);
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t k = 4;
  const std::vector<double> x = pin_vector(k * n, 7);
  std::vector<double> y(k * n);
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
  const std::vector<std::uint64_t> sequences = {0, 0, 0, 0};
  core::SweepVerdict verdict;
  const core::SweepContext ctx{seeds, sequences, &verdict};
  backend.sweep(x, k, y, ctx);
  const long before = g_allocations.load();
  backend.sweep(x, k, y, ctx);
  EXPECT_EQ(g_allocations.load() - before, 0);
  EXPECT_TRUE(verdict.checked);
  EXPECT_TRUE(verdict.ok);
}

}  // namespace
}  // namespace refloat::hw

// The tiled-execution contract: partitioning a RefloatMatrix across
// modeled ReRAM tiles is a pure scheduling change — every shard is a set of
// offsets that agrees with the matrix's block index and packed operand,
// every SpMV path is
// bit-identical to its untiled counterpart for any partition at any thread
// count — while the arch/ timing collapses to the monolithic closed form
// at one tile and the hw/ per-tile ECC measurably improves fault survival
// with tile count.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "src/arch/cost.h"
#include "src/arch/schedule.h"
#include "src/arch/timing.h"
#include "src/core/refloat_matrix.h"
#include "src/core/sweep_backend.h"
#include "src/core/tiled_plan.h"
#include "src/gen/grid.h"
#include "src/gen/suite.h"
#include "src/hw/bit_true_backend.h"
#include "src/hw/hw_spmv.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace refloat {
namespace {

const core::Format kFmt{.b = 4, .e = 3, .f = 3, .ev = 3, .fv = 8};
// 30 fraction bits: grid_matrix()'s quantized values no longer fit fp32, so
// the packed operand falls back to the fp64 value code.
const core::Format kWideFmt{.b = 4, .e = 3, .f = 30, .ev = 3, .fv = 8};

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = rng.gaussian();
  return x;
}

// 20x10 grid -> 200 rows -> 13 block-rows at b=4: odd, so every tested
// tile count splits unevenly.
sparse::Csr grid_matrix() {
  return gen::build_stencil(gen::laplace2d_5pt(20, 10)).shifted(0.2);
}

// 64x64 with rows 16..31 empty: grid block-row 1 is an empty range in the
// block index and must land inside some shard as a no-op band.
sparse::Csr empty_band_matrix() {
  std::vector<sparse::Triplet> triplets;
  for (sparse::Index i = 0; i < 64; ++i) {
    if (i >= 16 && i < 32) continue;
    triplets.push_back({i, i, 2.5});
    if (i + 1 < 64) triplets.push_back({i, i + 1, -1.0});
  }
  return sparse::Csr::from_triplets(64, 64, triplets);
}

TEST(TilePartition, CoversTheMatrixForEveryTileCount) {
  const core::RefloatMatrix rf(grid_matrix(), kFmt);
  const core::RefloatMatrix other(empty_band_matrix(), kFmt);
  for (const int tiles : {1, 2, 3, 7, 13, 64}) {
    const core::TiledPlan tiled = core::TiledPlan::partition(rf, tiles);
    EXPECT_TRUE(tiled.valid(rf)) << tiles << " tiles";
    // A partition of one matrix is not a cover of another.
    EXPECT_FALSE(tiled.valid(other)) << tiles << " tiles";
    EXPECT_EQ(tiled.tile_count(), std::min<int>(tiles, 64));
    std::size_t blocks = 0;
    std::size_t entries = 0;
    for (const core::TileShard& s : tiled.shards()) {
      blocks += s.blocks();
      entries += s.entries();
    }
    EXPECT_EQ(blocks, rf.nonzero_blocks()) << tiles << " tiles";
    EXPECT_EQ(entries, static_cast<std::size_t>(rf.quantized().nnz()))
        << tiles << " tiles";
    EXPECT_GE(tiled.balance(), 1.0) << tiles << " tiles";
  }
}

TEST(TilePartition, MoreTilesThanBlockRowsPadsEmptyShards) {
  // 64x64 at b=4 -> 4 block-rows; 7 requested tiles -> 3 empty trailing
  // shards, still a valid cover.
  const core::RefloatMatrix rf(empty_band_matrix(), kFmt);
  ASSERT_EQ(rf.block_index().block_rows(), 4u);
  const core::TiledPlan tiled = core::TiledPlan::partition(rf, 7);
  EXPECT_TRUE(tiled.valid(rf));
  EXPECT_EQ(tiled.tile_count(), 7);
  int empty_shards = 0;
  for (const core::TileShard& s : tiled.shards()) {
    if (s.block_rows() == 0) ++empty_shards;
  }
  EXPECT_EQ(empty_shards, 3);
}

// --- The partition, pinned absolutely ------------------------------------
// One FNV-1a digest per (matrix, b) over every tested tile count: the tile
// count, each shard's first block-row, the last shard's end and the bits of
// balance(). The digests were taken from the build whose partitioner also
// took a per-tile capacity and an optional refinement pass, so a change to
// the greedy cuts, the refinement or the balance arithmetic fails here.

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
};

std::uint64_t partition_digest(const core::RefloatMatrix& rf) {
  Fnv fnv;
  for (const int tiles : {1, 2, 3, 4, 5, 7, 8, 13, 16, 64}) {
    const core::TiledPlan tiled = core::TiledPlan::partition(rf, tiles);
    fnv.add(static_cast<std::uint64_t>(tiled.tile_count()));
    for (const core::TileShard& s : tiled.shards()) fnv.add(s.brow_begin);
    fnv.add(tiled.shards().back().brow_end);
    fnv.add(std::bit_cast<std::uint64_t>(tiled.balance()));
  }
  return fnv.h;
}

// The thermomech block-scatter shape: a 16^3 7-point Laplacian under a
// windowed random symmetric permutation, so block loads are uneven.
sparse::Csr scattered_matrix() {
  gen::SuiteSpec spec;
  spec.name = "scattered16";
  spec.kind = gen::MatrixKind::kScattered3d7;
  spec.nx = spec.ny = spec.nz = 16;
  spec.seed = 17;
  spec.paper_kappa = 100.0;
  return gen::build(spec);
}

TEST(TilePartition, CutsPinnedToParent) {
  const sparse::Csr grid64 =
      gen::build_stencil(gen::laplace2d_5pt(64, 64)).shifted(0.2);
  const struct {
    const char* name;
    sparse::Csr a;
    std::uint64_t digest_b4;
    std::uint64_t digest_b7;
  } cases[] = {
      {"grid 20x10", grid_matrix(), 0xa3b1e17fb0939049ULL,
       0x6e47352c420740f4ULL},
      {"empty band", empty_band_matrix(), 0xe9649bab45380865ULL,
       0x8906ea65b5dff440ULL},
      {"grid 64x64", grid64, 0xbb940ef3b1a2735fULL, 0xa47706367b11e03cULL},
      {"scattered", scattered_matrix(), 0x9e35ba9bad408c7cULL,
       0xae26ade5354d1433ULL},
  };
  for (const auto& c : cases) {
    core::Format fmt = kFmt;
    for (const int b : {4, 7}) {
      fmt.b = b;
      const core::RefloatMatrix rf(c.a, fmt);
      EXPECT_EQ(partition_digest(rf), b == 4 ? c.digest_b4 : c.digest_b7)
          << c.name << ", b=" << b;
    }
  }
}

TEST(TilePartition, ScalarFormatRunsUntiled) {
  // A scalar format (b = 0) has no block-rows, so every partition is the
  // empty plan and both sweeps write every row, as untiled.
  const core::Format scalar = core::format_fp32();
  ASSERT_EQ(scalar.b, 0);
  const sparse::Csr a = grid_matrix();
  const core::RefloatMatrix rf(a, scalar);
  const std::vector<double> x =
      random_vector(static_cast<std::size_t>(a.rows()), 206);
  const std::uint64_t seed = 78;
  const std::uint64_t sequence = 1;
  const core::SweepContext ctx{.seeds = {&seed, 1},
                               .sequences = {&sequence, 1}};
  std::vector<double> want_value(x.size());
  std::vector<double> want_noisy(x.size());
  core::make_value_backend(rf)->sweep(x, 1, want_value, {});
  core::make_noisy_backend(rf, 0.05, seed)->sweep(x, 1, want_noisy, ctx);
  for (const int tiles : {1, 2, 4}) {
    const core::TiledPlan tiled = core::TiledPlan::partition(rf, tiles);
    EXPECT_TRUE(tiled.empty()) << tiles << " tiles";
    EXPECT_TRUE(tiled.valid(rf)) << tiles << " tiles";
    std::vector<double> y(x.size(), -1.0);
    core::make_value_backend(rf, &tiled)->sweep(x, 1, y, {});
    EXPECT_EQ(y, want_value) << tiles << " tiles";
    std::fill(y.begin(), y.end(), -1.0);
    core::make_noisy_backend(rf, 0.05, seed, &tiled)->sweep(x, 1, y, ctx);
    EXPECT_EQ(y, want_noisy) << tiles << " tiles";
  }
}

// Runs `fn` at 1, 2, and 8 threads and asserts bit-identical vectors.
void expect_bit_identical_across_threads(
    const std::function<std::vector<double>()>& fn,
    const std::vector<double>& want, const char* what) {
  for (const int threads : {1, 2, 8}) {
    util::ThreadPool::set_global_threads(threads);
    const std::vector<double> got = fn();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << what << ": row " << i << " at " << threads << " threads";
    }
  }
  util::ThreadPool::set_global_threads(1);
}

TEST(TiledSpmv, BitIdenticalToUntiledForEveryPartitionAndThreadCount) {
  std::set<sparse::ValueCode> codes;  // both packed value codes are covered
  for (const auto& [a, fmt] : {std::pair{grid_matrix(), kFmt},
                               std::pair{grid_matrix(), kWideFmt},
                               std::pair{empty_band_matrix(), kFmt}}) {
    const core::RefloatMatrix rf(a, fmt);
    codes.insert(rf.quantized().code());
    const std::vector<double> x =
        random_vector(static_cast<std::size_t>(a.rows()), 201);
    util::ThreadPool::set_global_threads(1);
    std::vector<double> want(x.size());
    core::make_value_backend(rf, nullptr)->sweep(x, 1, want, {});
    for (const int tiles : {1, 2, 3, 7}) {
      const core::TiledPlan tiled = core::TiledPlan::partition(rf, tiles);
      const auto backend = core::make_value_backend(rf, &tiled);
      expect_bit_identical_across_threads(
          [&] {
            std::vector<double> y(x.size());
            backend->sweep(x, 1, y, {});
            return y;
          },
          want, "value path");
    }
  }
  EXPECT_EQ(codes.size(), 2u);
}

TEST(TiledSpmv, NoisyPathBitIdenticalToUntiled) {
  // Noise streams are keyed per grid block-row, not per tile, so the tiled
  // noisy sweep reproduces the untiled one exactly — over either packed
  // value code.
  for (const core::Format& fmt : {kFmt, kWideFmt}) {
    const sparse::Csr a = grid_matrix();
    const core::RefloatMatrix rf(a, fmt);
    const std::vector<double> x =
        random_vector(static_cast<std::size_t>(a.rows()), 203);
    util::ThreadPool::set_global_threads(1);
    // Every sweep draws the explicit stream identity (seed 77, sequence 3).
    const std::uint64_t seed = 77;
    const std::uint64_t sequence = 3;
    const core::SweepContext ctx{.seeds = {&seed, 1},
                                 .sequences = {&sequence, 1}};
    std::vector<double> want(x.size());
    core::make_noisy_backend(rf, 0.05, seed, nullptr)->sweep(x, 1, want, ctx);
    for (const int tiles : {1, 2, 3, 7}) {
      const core::TiledPlan tiled = core::TiledPlan::partition(rf, tiles);
      const auto backend = core::make_noisy_backend(rf, 0.05, seed, &tiled);
      expect_bit_identical_across_threads(
          [&] {
            std::vector<double> y(x.size());
            backend->sweep(x, 1, y, ctx);
            return y;
          },
          want, "noisy path");
    }
  }
}

TEST(TiledHwSpmv, FaultFreeBuildMatchesMonolithicBitForBit) {
  // Without faults every tile programs the same cells, so the tiled build
  // must equal the monolithic one even with conductance noise on (noise is
  // keyed per block-row downstream of programming).
  const sparse::Csr a = grid_matrix();
  const core::RefloatMatrix rf(a, kFmt);
  hw::ClusterConfig config;
  config.noise.sigma = 0.05;
  const std::vector<double> x =
      random_vector(static_cast<std::size_t>(a.rows()), 204);
  util::ThreadPool::set_global_threads(1);
  hw::BitTrueBackend mono(rf, config, /*seed=*/55);
  std::vector<double> want(x.size());
  mono.sweep(x, 1, want, {});
  for (const int tiles : {1, 2, 3, 7}) {
    const core::TiledPlan tiled = core::TiledPlan::partition(rf, tiles);
    expect_bit_identical_across_threads(
        [&] {
          hw::BitTrueBackend backend(rf, config, /*seed=*/55, &tiled);
          std::vector<double> y(x.size());
          backend.sweep(x, 1, y, {});
          return y;
        },
        want, "hw path");
  }
}

TEST(TiledHwSpmv, OneTileReproducesTheMonolithicFaultPopulation) {
  // Tile 0 keeps the fault seed verbatim: a 1-tile tiled build injects the
  // exact same faulty cells as the monolithic build.
  const sparse::Csr a = grid_matrix();
  const core::RefloatMatrix rf(a, kFmt);
  hw::ClusterConfig config;
  config.faults.stuck_at_one_rate = 1e-2;
  util::ThreadPool::set_global_threads(1);
  hw::BitTrueBackend mono(rf, config);
  const core::TiledPlan one = core::TiledPlan::partition(rf, 1);
  hw::BitTrueBackend tiled(rf, config, hw::kDefaultNoiseSeed, &one);
  EXPECT_EQ(tiled.hw().tile_count(), 1);
  EXPECT_EQ(tiled.hw().stats().faulty_cells, mono.hw().stats().faulty_cells);
  EXPECT_GT(mono.hw().stats().faulty_cells, 0);
  const std::vector<double> x =
      random_vector(static_cast<std::size_t>(a.rows()), 205);
  std::vector<double> y1(x.size());
  std::vector<double> y2(x.size());
  mono.sweep(x, 1, y1, {});
  tiled.sweep(x, 1, y2, {});
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y1[i], y2[i]);
}

TEST(TiledHwSpmv, PerTileEccBudgetImprovesFaultSurvival) {
  const sparse::Csr a = grid_matrix();
  const core::RefloatMatrix rf(a, kFmt);
  hw::ClusterConfig faults;
  faults.faults.stuck_at_one_rate = 1e-2;
  util::ThreadPool::set_global_threads(1);

  // Measure the monolithic fault manifestations with ECC off. A defect can
  // manifest in both polarity quadrants, so manifestations ~ 2x defects.
  hw::HwSpmv bare(rf, faults);
  const long long selected = bare.stats().faulty_cells;
  ASSERT_GT(selected, 16);

  // A per-tile budget of ~1/4 of the monolithic manifestations (~1/2 of
  // the defects): alone it leaves a large share of the faults standing;
  // split across 4 tiles (each holding ~1/4 of the defects against the
  // same budget) it covers essentially everything.
  hw::ClusterConfig ecc = faults;
  ecc.ecc.correct_cells = (selected + 3) / 4;
  const long long budget = ecc.ecc.correct_cells;

  hw::HwSpmv mono(rf, ecc);
  EXPECT_EQ(mono.tile_count(), 1);
  // Budget exhausted: every charge repaired one defect (1 or 2 of the
  // selected manifestations), the rest landed.
  EXPECT_GT(mono.stats().faulty_cells, 0);
  EXPECT_GE(mono.stats().ecc_corrected, budget);
  EXPECT_LE(mono.stats().ecc_corrected, 2 * budget);
  EXPECT_EQ(mono.stats().faulty_cells + mono.stats().ecc_corrected, selected);

  const core::TiledPlan four = core::TiledPlan::partition(rf, 4);
  hw::HwSpmv tiled(rf, ecc, &four);
  ASSERT_EQ(tiled.tile_count(), 4);
  long long survived = 0;
  for (int t = 0; t < tiled.tile_count(); ++t) {
    survived += tiled.tile_faulty_cells(t);
    // The budget mechanism: a tile never repairs more manifestations than
    // two per budget charge, and a tile with surviving faults must have
    // exhausted its budget first.
    EXPECT_LE(tiled.tile_corrected_cells(t), 2 * budget);
    if (tiled.tile_faulty_cells(t) > 0) {
      EXPECT_GE(tiled.tile_corrected_cells(t), budget);
    }
  }
  EXPECT_EQ(survived, tiled.stats().faulty_cells);
  EXPECT_LT(survived, mono.stats().faulty_cells);
}

TEST(TiledTiming, OneTileMatchesTheMonolithicClosedFormExactly) {
  arch::AcceleratorConfig config = arch::refloat_config(kFmt);
  for (const long long capacity : {100000LL, 200LL, 37LL}) {
    config.total_crossbars =
        capacity * arch::crossbars_per_cluster(config.format);
    for (const long batch_k : {1L, 8L}) {
      const std::size_t blocks[] = {977};
      const arch::SpmvTiming mono = arch::spmm_time(config, 977, batch_k);
      const arch::TiledSpmvTiming tiled =
          arch::tiled_spmm_time(config, blocks, 4096, batch_k);
      EXPECT_EQ(tiled.seconds, mono.seconds) << "capacity " << capacity;
      EXPECT_EQ(tiled.rounds, mono.rounds);
      EXPECT_EQ(tiled.per_rhs_seconds, mono.per_rhs_seconds);
      EXPECT_EQ(tiled.broadcast_seconds, 0.0);
      EXPECT_EQ(tiled.reduction_seconds, 0.0);
      EXPECT_EQ(tiled.ecc_seconds, 0.0);
    }
  }
}

TEST(TiledTiming, TilesThatMakeTheMatrixResidentDropTheWriteRounds) {
  // 256 blocks against a 64-cluster tile: monolithic needs 4 reprogram
  // rounds; four tiles hold their 64-block shards resident and the engine
  // pipeline collapses to one compute wave. The interconnect terms are what
  // a tile sweep trades against that win.
  arch::AcceleratorConfig config = arch::refloat_config(kFmt);
  config.total_crossbars = 64 * arch::crossbars_per_cluster(config.format);
  const std::size_t one[] = {256};
  const std::size_t four[] = {64, 64, 64, 64};
  const arch::TiledSpmvTiming t1 = arch::tiled_spmm_time(config, one, 4096, 1);
  const arch::TiledSpmvTiming t4 =
      arch::tiled_spmm_time(config, four, 4096, 1);
  EXPECT_EQ(t1.rounds, 4);
  EXPECT_EQ(t4.rounds, 1);
  EXPECT_DOUBLE_EQ(t4.engine_seconds, t4.compute_seconds);
  EXPECT_LT(t4.engine_seconds, t1.engine_seconds);
  EXPECT_GT(t4.broadcast_seconds, 0.0);
  EXPECT_GT(t4.reduction_seconds, 0.0);
}

TEST(TiledTiming, EccRoundChargeAccumulatesPerTileRound) {
  arch::AcceleratorConfig config = arch::refloat_config(kFmt);
  config.total_crossbars = 64 * arch::crossbars_per_cluster(config.format);
  config.ecc_round_ns = 40.0;
  const std::size_t two[] = {128, 64};
  const arch::TiledSpmvTiming t = arch::tiled_spmm_time(config, two, 4096, 1);
  // 128 blocks -> 2 rounds, 64 -> 1 round: 3 (tile, round) charges.
  EXPECT_EQ(t.tile_rounds[0], 2);
  EXPECT_EQ(t.tile_rounds[1], 1);
  EXPECT_DOUBLE_EQ(t.ecc_seconds, 3 * 40.0 * 1e-9);
}

TEST(TiledSchedule, OneTileMatchesTheUntiledSimulation) {
  const sparse::Csr a = grid_matrix();
  const core::RefloatMatrix rf(a, kFmt);
  // Nothing flushes to zero, so shard entries count every nonzero.
  ASSERT_EQ(rf.stats().values,
            static_cast<std::size_t>(rf.quantized().nnz()));

  arch::AcceleratorConfig config = arch::refloat_config(kFmt);
  for (const long long capacity : {100000LL, 13LL}) {
    config.total_crossbars =
        capacity * arch::crossbars_per_cluster(config.format);
    const arch::ScheduleStats untiled = arch::simulate_spmv(config, rf);
    const core::TiledPlan one = core::TiledPlan::partition(rf, 1);
    const arch::ScheduleStats tiled =
        arch::simulate_spmv_tiled(config, rf, one);
    EXPECT_EQ(tiled.seconds, untiled.seconds) << "capacity " << capacity;
    EXPECT_EQ(tiled.rounds, untiled.rounds);
    EXPECT_EQ(tiled.cluster_utilization, untiled.cluster_utilization);
    EXPECT_EQ(tiled.matrix_stream_bits, untiled.matrix_stream_bits);
    EXPECT_EQ(tiled.input_vector_bits, untiled.input_vector_bits);
    EXPECT_EQ(tiled.output_vector_bits, untiled.output_vector_bits);
    EXPECT_EQ(tiled.broadcast_bits, 0);
    EXPECT_EQ(tiled.reduction_bits, 0);
  }
}

TEST(TiledSchedule, ReportsPerTileObservables) {
  const sparse::Csr a = grid_matrix();
  const core::RefloatMatrix rf(a, kFmt);
  arch::AcceleratorConfig config = arch::refloat_config(kFmt);
  config.total_crossbars = 8 * arch::crossbars_per_cluster(config.format);
  const core::TiledPlan tiled = core::TiledPlan::partition(rf, 3);
  const arch::ScheduleStats stats =
      arch::simulate_spmv_tiled(config, rf, tiled);
  EXPECT_EQ(stats.tiles, 3);
  ASSERT_EQ(stats.tile_utilization.size(), 3u);
  ASSERT_EQ(stats.tile_rounds.size(), 3u);
  for (int t = 0; t < 3; ++t) {
    EXPECT_GT(stats.tile_utilization[static_cast<std::size_t>(t)], 0.0);
    EXPECT_LE(stats.tile_utilization[static_cast<std::size_t>(t)], 1.0);
  }
  EXPECT_GT(stats.broadcast_bits, 0);
  EXPECT_GT(stats.reduction_bits, 0);
  EXPECT_GT(stats.broadcast_seconds, 0.0);
  EXPECT_GT(stats.reduction_seconds, 0.0);
}

}  // namespace
}  // namespace refloat

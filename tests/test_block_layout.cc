// The block layout contract: a RefloatMatrix's block index lists exactly
// the blocks a (block-row, block-column) bucketing of its packed operand
// finds, in that order, and an all-zero band of rows appears as an empty
// block-row range, not a missing one. The value sweep, which reads the
// packed operand row by row, is bit-identical to the historical blocked
// loop over those buckets, and the batched SpMM is column-wise
// bit-identical to sequential SpMVs — at every tested thread count
// (including odd shard counts), tile count, ISA and in both value codes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "src/core/refloat_matrix.h"
#include "src/core/simd.h"
#include "src/core/sweep_backend.h"
#include "src/gen/grid.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"
#include "tests/batch_layout.h"

namespace refloat {
namespace {

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = rng.gaussian();
  return x;
}

// The historical block payload: one heap-allocated entry vector per block,
// bucketed in (brow, bcol) map order with entries in CSR row-major order —
// rebuilt here from the dequantized CSR as an independent reference for
// the block index and the blocked sweep order.
struct LegacyEntry {
  std::int32_t r, c;
  double v;
};
using LegacyBlocks =
    std::map<std::pair<sparse::Index, sparse::Index>, std::vector<LegacyEntry>>;

LegacyBlocks legacy_blocks(const core::RefloatMatrix& rf) {
  LegacyBlocks blocks;
  const sparse::Csr q = rf.quantized().to_csr();
  const int b = rf.format().b;
  const auto row_ptr = q.row_ptr();
  const auto col_idx = q.col_idx();
  const auto values = q.values();
  for (sparse::Index r = 0; r < q.rows(); ++r) {
    for (sparse::Index k = row_ptr[static_cast<std::size_t>(r)];
         k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      const sparse::Index c = col_idx[static_cast<std::size_t>(k)];
      blocks[{r >> b, c >> b}].push_back(
          {static_cast<std::int32_t>(r & ((sparse::Index{1} << b) - 1)),
           static_cast<std::int32_t>(c & ((sparse::Index{1} << b) - 1)),
           values[static_cast<std::size_t>(k)]});
    }
  }
  return blocks;
}

// The blocked value loop the row sweeps replaced, kept here as the
// reference: zero y, visit the blocks in (brow, bcol) order, and add every
// entry's product into its output row. Scalar formats (b = 0) have no
// blocks; their value path was the CSR SpMV, a running sum per row. This
// TU is compiled with -ffp-contract=off, like the kernels.
std::vector<double> blocked_value_sweep(const core::RefloatMatrix& rf,
                                        std::span<const double> xq) {
  const sparse::Csr q = rf.quantized().to_csr();
  const auto rows = static_cast<std::size_t>(q.rows());
  std::vector<double> y(rows, 0.0);
  if (rf.format().b == 0) {
    for (std::size_t r = 0; r < rows; ++r) {
      double acc = 0.0;
      for (auto e = static_cast<std::size_t>(q.row_ptr()[r]);
           e < static_cast<std::size_t>(q.row_ptr()[r + 1]); ++e) {
        acc += q.values()[e] * xq[static_cast<std::size_t>(q.col_idx()[e])];
      }
      y[r] = acc;
    }
    return y;
  }
  const int b = rf.format().b;
  for (const auto& [key, entries] : legacy_blocks(rf)) {
    const auto r0 = static_cast<std::size_t>(key.first << b);
    const auto c0 = static_cast<std::size_t>(key.second << b);
    for (const LegacyEntry& e : entries) {
      y[r0 + static_cast<std::size_t>(e.r)] +=
          e.v * xq[c0 + static_cast<std::size_t>(e.c)];
    }
  }
  return y;
}

TEST(BlockLayout, BlockIndexMatchesLegacyBucketing) {
  const core::Format fmt{.b = 4, .e = 3, .f = 3, .ev = 3, .fv = 8};
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(20, 10)).shifted(0.2);
  const core::RefloatMatrix rf(a, fmt);
  const core::RefloatMatrix::BlockIndex& index = rf.block_index();

  // Same blocks in the same order (no block of this matrix flushes to
  // zero, so every indexed block has a bucket), every grid block-row
  // covered, and every entry in some block.
  const LegacyBlocks legacy = legacy_blocks(rf);
  ASSERT_EQ(index.size(), legacy.size());
  ASSERT_EQ(index.block_rows(), 13u);
  std::size_t j = 0;
  std::size_t entries = 0;
  for (const auto& [key, bucket] : legacy) {
    const auto br = static_cast<std::size_t>(key.first);
    EXPECT_GE(j, index.block_ptr[br]);
    EXPECT_LT(j, index.block_ptr[br + 1]);
    EXPECT_EQ(sparse::Index{index.block_col[j]}, key.second);
    entries += bucket.size();
    ++j;
  }
  EXPECT_EQ(index.block_ptr.front(), 0u);
  EXPECT_EQ(index.block_ptr.back(), index.size());
  EXPECT_EQ(entries, static_cast<std::size_t>(rf.quantized().nnz()));
  EXPECT_GT(index.bytes(), 0u);
}

TEST(BlockLayout, SpmvBitIdenticalToLegacyPathAcrossThreadCounts) {
  const core::Format fmt{.b = 4, .e = 3, .f = 3, .ev = 3, .fv = 8};
  // 20x10 grid -> 200 rows -> 13 block-rows at b=4: odd, not a multiple of
  // any tested thread count.
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(20, 10)).shifted(0.2);
  const core::RefloatMatrix rf(a, fmt);
  const std::vector<double> x =
      random_vector(static_cast<std::size_t>(a.rows()), 301);
  std::vector<double> xq(x.size());
  rf.quantize_vector(x, xq);
  const std::vector<double> reference = blocked_value_sweep(rf, xq);
  const auto backend = core::make_value_backend(rf);
  for (const int threads : {1, 2, 8}) {
    util::ThreadPool::set_global_threads(threads);
    std::vector<double> y(x.size());
    backend->sweep(x, 1, y, {});
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_EQ(y[i], reference[i])
          << "row " << i << " at " << threads << " threads";
    }
  }
  util::ThreadPool::set_global_threads(1);
}

TEST(BlockLayout, SpmmBitIdenticalToSequentialSpmvsAcrossThreadCounts) {
  const core::Format fmt{.b = 4, .e = 3, .f = 3, .ev = 3, .fv = 8};
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(20, 10)).shifted(0.2);
  const core::RefloatMatrix rf(a, fmt);
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const auto backend = core::make_value_backend(rf);
  for (const std::size_t k : {std::size_t{3}, std::size_t{8}}) {
    const std::vector<double> x = random_vector(n * k, 400 + k);
    // Reference: k sequential single-RHS SpMVs, serial.
    util::ThreadPool::set_global_threads(1);
    std::vector<double> reference(n * k);
    for (std::size_t j = 0; j < k; ++j) {
      std::vector<double> y(n);
      backend->sweep(std::span<const double>(x).subspan(j * n, n), 1, y, {});
      std::copy(y.begin(), y.end(), reference.begin() + j * n);
    }
    for (const int threads : {1, 2, 8}) {
      util::ThreadPool::set_global_threads(threads);
      std::vector<double> y(n * k);
      backend->sweep(testing::interleaved(x, k), k, y, {});
      y = testing::columns(y, k);
      for (std::size_t i = 0; i < y.size(); ++i) {
        ASSERT_EQ(y[i], reference[i]) << "slot " << i << " at " << threads
                                      << " threads, k=" << k;
      }
    }
  }
  util::ThreadPool::set_global_threads(1);
}

TEST(BlockLayout, EmptyBlockRowIsAnEmptyRangeNotAMissingOne) {
  // 64x64 at b=4: rows 16..31 carry no entries at all, so grid block-row 1
  // must exist in the block index as an empty range.
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
  const std::vector<std::size_t>& block_ptr = rf.block_index().block_ptr;
  ASSERT_EQ(rf.block_index().block_rows(), 4u);
  EXPECT_EQ(block_ptr[1], block_ptr[2]);  // block-row 1 is empty
  EXPECT_GT(block_ptr[1], block_ptr[0]);
  EXPECT_GT(block_ptr[3], block_ptr[2]);

  // SpMV over the gap still matches the quantized-CSR reference, at every
  // thread count, and the empty band reads exactly zero.
  const std::vector<double> x = random_vector(64, 500);
  std::vector<double> xq(64);
  rf.quantize_vector(x, xq);
  std::vector<double> reference(64, 0.0);
  rf.quantized().to_csr().spmv(xq, reference);
  const auto backend = core::make_value_backend(rf);
  for (const int threads : {1, 2, 8}) {
    util::ThreadPool::set_global_threads(threads);
    std::vector<double> y(64);
    backend->sweep(x, 1, y, {});
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_EQ(y[i], reference[i]) << "row " << i;
    }
    for (std::size_t i = 16; i < 32; ++i) ASSERT_EQ(y[i], 0.0);
    // And the batched path over the same gap.
    const std::size_t k = 3;
    const std::vector<double> xs = random_vector(64 * k, 501);
    std::vector<double> ys(64 * k);
    backend->sweep(testing::interleaved(xs, k), k, ys, {});
    ys = testing::columns(ys, k);
    std::vector<double> ycol(64);
    for (std::size_t j = 0; j < k; ++j) {
      backend->sweep(std::span<const double>(xs).subspan(j * 64, 64), 1, ycol,
                     {});
      for (std::size_t i = 0; i < 64; ++i) {
        ASSERT_EQ(ys[j * 64 + i], ycol[i]) << "col " << j << " row " << i;
      }
    }
  }
  util::ThreadPool::set_global_threads(1);
}

TEST(BlockLayout, ScalarFormatHasNoBlocksButSpmmStillWorks) {
  const sparse::Csr a =
      gen::build_stencil(gen::laplace2d_5pt(8, 8)).shifted(0.2);
  const core::RefloatMatrix rf(a, core::format_fp64());
  EXPECT_EQ(rf.block_index().size(), 0u);
  EXPECT_TRUE(rf.block_index().block_ptr.empty());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t k = 2;
  const std::vector<double> x = random_vector(n * k, 600);
  std::vector<double> y(n * k);
  const auto backend = core::make_value_backend(rf);
  backend->sweep(testing::interleaved(x, k), k, y, {});
  y = testing::columns(y, k);
  std::vector<double> ycol(n);
  for (std::size_t j = 0; j < k; ++j) {
    backend->sweep(std::span<const double>(x).subspan(j * n, n), 1, ycol, {});
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(y[j * n + i], ycol[i]);
    }
  }
}

// --- The value sweep vs the blocked loop across ISAs and codes ------------

// Operand values spanning 2^-40..2^40 in magnitude, both signs, with
// signed zeros sprinkled in.
std::vector<double> wide_operand(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 7 == 3) {
      x[i] = 0.0;
    } else if (i % 11 == 5) {
      x[i] = -0.0;
    } else {
      const int exponent = static_cast<int>(rng.next() % 81) - 40;
      x[i] = std::ldexp(rng.uniform(1.0, 2.0), exponent) *
             (rng.next() % 2 == 0 ? 1.0 : -1.0);
    }
  }
  return x;
}

// Every 16x16 block on a checkerboard of the 96x96 block grid is dense.
sparse::Csr dense_block_matrix() {
  util::Rng rng(71);
  std::vector<sparse::Triplet> triplets;
  for (sparse::Index r = 0; r < 96; ++r) {
    for (sparse::Index c = 0; c < 96; ++c) {
      if (((r / 16) + (c / 16)) % 2 != 0) continue;
      triplets.push_back({r, c, wide_operand(1, rng.next())[0] + 0.5});
    }
  }
  return sparse::Csr::from_triplets(96, 96, triplets);
}

// A diagonal plus three scattered entries per row: at b = 4 a block-row's
// ~64 entries spread over 40 block-columns, ~2 per nonzero block.
sparse::Csr scattered_matrix() {
  constexpr sparse::Index n = 640;
  util::Rng rng(72);
  std::vector<sparse::Triplet> triplets;
  for (sparse::Index r = 0; r < n; ++r) {
    triplets.push_back({r, r, 4.0});
    for (int i = 0; i < 3; ++i) {
      const auto c = static_cast<sparse::Index>(rng.next() % n);
      triplets.push_back({r, c, rng.gaussian() * std::ldexp(1.0, i * 9 - 9)});
    }
  }
  return sparse::Csr::from_triplets(n, n, triplets);
}

// Rows 16..31 carry no entries: an empty block-row band at b = 4.
sparse::Csr empty_band_matrix() {
  std::vector<sparse::Triplet> triplets;
  for (sparse::Index i = 0; i < 64; ++i) {
    if (i >= 16 && i < 32) continue;
    triplets.push_back({i, i, 2.0 + 0.01 * static_cast<double>(i)});
    if (i + 1 < 64) triplets.push_back({i, i + 1, -0.5});
    if (i >= 40) triplets.push_back({i, i - 40, 1e-3});
  }
  return sparse::Csr::from_triplets(64, 64, triplets);
}

std::vector<core::SimdIsa> runnable_isas() {
  std::vector<core::SimdIsa> isas = {core::SimdIsa::kScalar};
  for (const core::SimdIsa isa : {core::SimdIsa::kAvx2, core::SimdIsa::kNeon}) {
    if (core::simd_isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

// Runs over both value codes of the packed operand: the narrow format's
// 3-bit fractions are fp32-exact, the wide format's 30-bit fractions force
// the fp64 fallback, and each case asserts which code it exercises.
TEST(BlockLayout, ValueSweepBitIdenticalToBlockedLoop) {
  const core::Format narrow{.b = 4, .e = 3, .f = 3, .ev = 3, .fv = 8};
  const core::Format wide{.b = 4, .e = 7, .f = 30, .ev = 7, .fv = 30};
  constexpr sparse::ValueCode kFp32 = sparse::ValueCode::kFp32;
  constexpr sparse::ValueCode kFp64 = sparse::ValueCode::kFp64;
  const struct Case {
    const char* name;
    sparse::Csr a;
    core::Format format;
    sparse::ValueCode code;
  } cases[] = {
      {"dense blocks", dense_block_matrix(), narrow, kFp32},
      {"dense blocks, wide", dense_block_matrix(), wide, kFp64},
      {"scattered", scattered_matrix(), narrow, kFp32},
      {"scattered, wide", scattered_matrix(), wide, kFp64},
      {"empty band", empty_band_matrix(), narrow, kFp32},
      {"empty band, wide", empty_band_matrix(), wide, kFp64},
      {"b = 0", scattered_matrix(), core::format_fp32(), kFp32},
      {"b = 0, fp64", scattered_matrix(), core::format_fp64(), kFp64},
  };
  const std::size_t ks[] = {1, 2, 3, 4, 5, 8, 16};
  for (const Case& c : cases) {
    const core::RefloatMatrix rf(c.a, c.format);
    ASSERT_EQ(rf.quantized().code(), c.code) << c.name;
    const auto n = static_cast<std::size_t>(c.a.rows());
    for (const std::size_t k : ks) {
      const std::vector<double> x = wide_operand(n * k, 1000 + k);
      const std::vector<double> batch = testing::interleaved(x, k);
      // Reference: the blocked loop per column on the quantized operand.
      std::vector<double> reference(n * k);
      std::vector<double> xq(n);
      for (std::size_t j = 0; j < k; ++j) {
        rf.quantize_vector(std::span<const double>(x).subspan(j * n, n), xq);
        const std::vector<double> col = blocked_value_sweep(rf, xq);
        std::copy(col.begin(), col.end(), reference.begin() + j * n);
      }
      for (const core::SimdIsa isa : runnable_isas()) {
        core::simd_set_isa(isa);
        for (const int tiles : {1, 4}) {
          const core::TiledPlan tiled = core::TiledPlan::partition(rf, tiles);
          auto backend =
              core::make_value_backend(rf, tiles > 1 ? &tiled : nullptr);
          for (const int threads : {1, 2, 8}) {
            util::ThreadPool::set_global_threads(threads);
            std::vector<double> y(n * k, 42.0);
            backend->sweep(batch, k, y, {});
            y = testing::columns(y, k);
            for (std::size_t i = 0; i < y.size(); ++i) {
              ASSERT_EQ(std::bit_cast<std::uint64_t>(y[i]),
                        std::bit_cast<std::uint64_t>(reference[i]))
                  << c.name << ": " << core::simd_isa_name(isa) << " k=" << k
                  << " tiles=" << tiles << " threads=" << threads << " slot "
                  << i;
            }
          }
        }
      }
    }
  }
  core::simd_set_isa(core::simd_best_supported());
  util::ThreadPool::set_global_threads(1);
}

}  // namespace
}  // namespace refloat

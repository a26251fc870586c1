#include "src/core/refloat_matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "src/core/band_scatter.h"
#include "src/core/sweep_backend.h"
#include "src/gen/grid.h"
#include "src/gen/suite.h"
#include "src/util/random.h"

namespace refloat::core {
namespace {

sparse::Csr test_matrix() {
  return gen::build_stencil(gen::laplace2d_5pt(24, 24)).shifted(0.1);
}

TEST(RefloatMatrix, RoundTripErrorBoundedByFractionBits) {
  // With the default max-anchored window and e=3, the 5-point Laplacian's
  // per-block exponent spread (values in {-1, 0.1, 4.1}) fits the window,
  // so every entry obeys the 2^-(f+1) relative rounding bound.
  const sparse::Csr a = test_matrix();
  for (const int f : {3, 8}) {
    Format fmt = default_format();
    fmt.b = 4;
    fmt.f = f;
    const RefloatMatrix rf(a, fmt);
    EXPECT_EQ(rf.stats().overflowed, 0u);
    const double bound = std::ldexp(1.0, -(f + 1));
    EXPECT_LE(rf.stats().rel_error_fro, bound);
    // Entry-wise check through the dequantized matrix.
    const auto va = a.values();
    const sparse::Csr q = rf.quantized().to_csr();
    const auto vq = q.values();
    ASSERT_EQ(va.size(), vq.size());
    for (std::size_t i = 0; i < va.size(); ++i) {
      EXPECT_LE(std::abs(va[i] - vq[i]),
                bound * std::abs(va[i]) * (1.0 + 1e-12));
    }
  }
  // More fraction bits -> strictly tighter conversion error.
  Format f3 = default_format();
  f3.b = 4;
  Format f8 = f3;
  f8.f = 8;
  EXPECT_LT(RefloatMatrix(a, f8).stats().rel_error_fro,
            RefloatMatrix(a, f3).stats().rel_error_fro);
}

TEST(RefloatMatrix, VectorQuantizationBoundedByFvBits) {
  const sparse::Csr a = test_matrix();
  const RefloatMatrix rf(a, default_format());
  util::Rng rng(7);
  std::vector<double> x(static_cast<std::size_t>(a.rows()));
  for (double& v : x) v = rng.gaussian();
  std::vector<double> out(x.size());
  rf.quantize_vector(x, out);
  // In-window entries obey the fv relative rounding bound; below-window
  // entries denormalize onto the segment's absolute floor grid (half a
  // floor step of absolute error at most).
  const int ev = rf.format().ev;
  const int fv = rf.format().fv;
  const double bound = std::ldexp(1.0, -(fv + 1));
  const std::size_t side = std::size_t{1} << rf.format().b;
  std::size_t in_window = 0;
  for (std::size_t begin = 0; begin < x.size(); begin += side) {
    const std::size_t end = std::min(begin + side, x.size());
    double seg_max = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      seg_max = std::max(seg_max, std::abs(x[i]));
    }
    const int base = std::ilogb(seg_max);
    const double floor_step = std::ldexp(1.0, base - (1 << ev) + 1 - fv);
    for (std::size_t i = begin; i < end; ++i) {
      const double err = std::abs(out[i] - x[i]);
      EXPECT_LE(err, std::max(bound * std::abs(x[i]), 0.5 * floor_step) *
                         (1.0 + 1e-12));
      if (err <= bound * std::abs(x[i]) * (1.0 + 1e-12)) ++in_window;
    }
  }
  EXPECT_GT(static_cast<double>(in_window), 0.9 * static_cast<double>(x.size()));
}

TEST(RefloatMatrix, ValueSweepMatchesQuantizedCsr) {
  const sparse::Csr a = test_matrix();
  const RefloatMatrix rf(a, default_format());
  util::Rng rng(11);
  std::vector<double> x(static_cast<std::size_t>(a.rows()));
  for (double& v : x) v = rng.gaussian();
  std::vector<double> xq(x.size());
  rf.quantize_vector(x, xq);
  std::vector<double> reference(x.size());
  rf.quantized().to_csr().spmv(xq, reference);
  std::vector<double> y(x.size());
  make_value_backend(rf)->sweep(x, 1, y, {});
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], reference[i], 1e-12);
  }
}

TEST(RefloatMatrix, BlockIndexCoversAllNonzeros) {
  // Every entry of the packed operand lies in a block its band indexes.
  const sparse::Csr a = test_matrix();
  const RefloatMatrix rf(a, default_format());
  const RefloatMatrix::BlockIndex& index = rf.block_index();
  const int b = rf.format().b;
  const sparse::Csr q = rf.quantized().to_csr();
  for (sparse::Index r = 0; r < q.rows(); ++r) {
    const auto br = static_cast<std::size_t>(r >> b);
    const auto first = index.block_col.begin() +
                       static_cast<std::ptrdiff_t>(index.block_ptr[br]);
    const auto last = index.block_col.begin() +
                      static_cast<std::ptrdiff_t>(index.block_ptr[br + 1]);
    for (sparse::Index k = q.row_ptr()[static_cast<std::size_t>(r)];
         k < q.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      const auto bc = static_cast<std::int32_t>(
          q.col_idx()[static_cast<std::size_t>(k)] >> b);
      EXPECT_TRUE(std::binary_search(first, last, bc)) << "row " << r;
    }
  }
  EXPECT_GT(rf.nonzero_blocks(), 0u);
}

TEST(RefloatMatrix, StorageModelBeatsCooBaseline) {
  const sparse::Csr a = test_matrix();
  const RefloatMatrix rf(a, default_format());
  // Fig. 4 / Table VIII: default format costs ~0.17x of COO double.
  EXPECT_LT(rf.memory_overhead_vs_coo(), 0.25);
  EXPECT_GT(rf.memory_overhead_vs_coo(), 0.1);
  EXPECT_LT(rf.storage_bits(), rf.baseline_csr_bits());
}

TEST(RefloatMatrix, MeanBaseSaturatesWideBlocks) {
  // A block with a 2^12 exponent spread: the Eq. 5 mean base saturates the
  // large entries; the max anchor never overflows.
  std::vector<sparse::Triplet> triplets;
  for (sparse::Index i = 0; i < 8; ++i) {
    triplets.push_back({i, i, std::ldexp(1.0, static_cast<int>(i) * -3)});
  }
  triplets.push_back({0, 7, 4096.0});
  const sparse::Csr a = sparse::Csr::from_triplets(8, 8, triplets);
  Format fmt = default_format();
  fmt.b = 3;
  const RefloatMatrix max_anchor(a, fmt);
  EXPECT_EQ(max_anchor.stats().overflowed, 0u);
  const RefloatMatrix mean_base(a, fmt, paper_literal_policy());
  EXPECT_GT(mean_base.stats().overflowed, 0u);
}

TEST(RefloatMatrix, ScalarFormatFp64RoundTripsExactly) {
  const sparse::Csr a = test_matrix();
  const RefloatMatrix rf(a, format_fp64());
  EXPECT_EQ(rf.stats().rel_error_fro, 0.0);
  EXPECT_EQ(rf.nonzero_blocks(), 0u);
}

TEST(RefloatMatrix, RejectsNonCanonicalInput) {
  // 2x4, row 0 = {0, 2}, row 1 = {1, 3} is canonical; each variant breaks
  // one rule. Converted anyway, a repeated coordinate would reach the
  // packed operand twice, and an out-of-range column would index a block
  // outside the grid.
  const auto csr = [](std::vector<sparse::Index> cols) {
    return sparse::Csr(2, 4, {0, 2, 4}, std::move(cols),
                       {1.0, 2.0, 3.0, 4.0});
  };
  Format fmt = default_format();
  fmt.b = 1;
  EXPECT_NO_THROW(RefloatMatrix(csr({0, 2, 1, 3}), fmt));
  for (const Format& f : {fmt, format_fp64()}) {
    EXPECT_THROW(RefloatMatrix(csr({0, 2, 1, 1}), f), std::invalid_argument)
        << "duplicate column, b=" << f.b;
    EXPECT_THROW(RefloatMatrix(csr({2, 0, 1, 3}), f), std::invalid_argument)
        << "descending columns, b=" << f.b;
    EXPECT_THROW(RefloatMatrix(csr({0, 2, 1, 4}), f), std::invalid_argument)
        << "column == cols, b=" << f.b;
    EXPECT_THROW(RefloatMatrix(csr({0, 2, -1, 3}), f), std::invalid_argument)
        << "negative column, b=" << f.b;
  }
  EXPECT_THROW(RefloatMatrix(sparse::Csr(2, 4, {0, 3, 2}, {0, 1}, {1.0, 2.0}),
                             fmt),
               std::invalid_argument)
      << "decreasing row_ptr";
}

// --- Reference conversion ---------------------------------------------------
// The block-map + triplet conversion the streamed one replaced (minus its
// unsorted-block fallback: inputs are canonical), kept as the reference the
// streamed conversion must match bit for bit.

// One block of the reference conversion: its grid position, base exponent
// and surviving (nonzero quantized) entries, row-major.
struct RefEntry {
  std::int32_t r, c;
  double q;
};
struct RefBlock {
  sparse::Index brow, bcol;
  int base;
  std::vector<RefEntry> entries;
};

struct Converted {
  std::vector<RefBlock> blocks;  // (block-row, block-column) order
  sparse::Csr quantized;
  ConversionStats stats;
};

int reference_bits_for_spread(int spread) {
  int bits = 0;
  while ((1 << bits) < spread) ++bits;
  return bits;
}

Converted reference_convert(const sparse::Csr& a, const Format& format,
                            const QuantPolicy& policy) {
  Converted out;
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  const sparse::Index rows = a.rows();
  double err_sq = 0.0;
  double ref_sq = 0.0;
  QuantTally tally;
  std::vector<sparse::Triplet> quantized_triplets;
  if (format.b == 0) {
    for (sparse::Index r = 0; r < rows; ++r) {
      for (sparse::Index k = row_ptr[static_cast<std::size_t>(r)];
           k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
        const double v = values[static_cast<std::size_t>(k)];
        const double q = quantize_scalar(v, format.e, format.f, &tally);
        err_sq += (v - q) * (v - q);
        ref_sq += v * v;
        if (q != 0.0) {
          quantized_triplets.push_back(
              {r, col_idx[static_cast<std::size_t>(k)], q});
        }
      }
    }
  } else {
    struct Raw {
      std::int32_t r, c;
      double v;
    };
    std::map<std::pair<sparse::Index, sparse::Index>, std::vector<Raw>>
        buckets;
    const int b = format.b;
    for (sparse::Index r = 0; r < rows; ++r) {
      for (sparse::Index k = row_ptr[static_cast<std::size_t>(r)];
           k < row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
        const sparse::Index c = col_idx[static_cast<std::size_t>(k)];
        buckets[{r >> b, c >> b}].push_back(
            {static_cast<std::int32_t>(r & ((sparse::Index{1} << b) - 1)),
             static_cast<std::int32_t>(c & ((sparse::Index{1} << b) - 1)),
             values[static_cast<std::size_t>(k)]});
      }
    }
    std::vector<double> block_values;
    for (auto& [key, raws] : buckets) {
      block_values.clear();
      int min_e = 0;
      int max_e = 0;
      bool any = false;
      for (const Raw& raw : raws) {
        block_values.push_back(raw.v);
        if (raw.v == 0.0 || !std::isfinite(raw.v)) continue;
        const int e = std::ilogb(raw.v);
        if (!any) {
          min_e = max_e = e;
          any = true;
        } else {
          min_e = std::min(min_e, e);
          max_e = std::max(max_e, e);
        }
      }
      if (any) {
        out.stats.locality_bits =
            std::max(out.stats.locality_bits,
                     reference_bits_for_spread(max_e - min_e + 1));
      }
      const sparse::Index row0 = key.first << b;
      const sparse::Index col0 = key.second << b;
      const int base = select_block_base(block_values, format.e, policy);
      RefBlock& block = out.blocks.emplace_back(
          RefBlock{key.first, key.second, base, {}});
      for (const Raw& raw : raws) {
        const double q =
            quantize_value(raw.v, base, format.e, format.f, policy, &tally);
        err_sq += (raw.v - q) * (raw.v - q);
        ref_sq += raw.v * raw.v;
        if (q != 0.0) {
          block.entries.push_back({raw.r, raw.c, q});
          quantized_triplets.push_back({row0 + raw.r, col0 + raw.c, q});
        }
      }
    }
  }
  out.stats.values = tally.values;
  out.stats.overflowed = tally.overflowed;
  out.stats.underflowed = tally.underflowed;
  out.stats.flushed_to_zero = tally.flushed_to_zero;
  out.stats.rel_error_fro = ref_sq > 0.0 ? std::sqrt(err_sq / ref_sq) : 0.0;
  out.quantized = sparse::Csr::from_triplets(rows, a.cols(),
                                             std::move(quantized_triplets));
  return out;
}

// Bitwise equality, so NaN payloads and signed zeros count.
template <typename T>
bool same_bits(std::span<const T> x, std::span<const T> y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if constexpr (std::is_same_v<T, double>) {
      if (std::bit_cast<std::uint64_t>(x[i]) !=
          std::bit_cast<std::uint64_t>(y[i])) {
        return false;
      }
    } else if (x[i] != y[i]) {
      return false;
    }
  }
  return true;
}

void expect_matches_reference(const sparse::Csr& a, const Format& fmt,
                              const QuantPolicy& policy,
                              const std::string& what) {
  SCOPED_TRACE(what + " b=" + std::to_string(fmt.b) +
               " fv=" + std::to_string(fmt.fv));
  ASSERT_TRUE(a.canonical());
  const RefloatMatrix rf(a, fmt, policy);
  const Converted ref = reference_convert(a, fmt, policy);
  // The block index is the reference's block list: the same blocks in the
  // same order with the same base exponents, every grid block-row covered.
  // Each band of the packed operand, grouped by block column as bit-true
  // programming groups it, has one run per block with surviving entries,
  // holding exactly those entries in row-major order.
  const RefloatMatrix::BlockIndex& index = rf.block_index();
  EXPECT_EQ(rf.nonzero_blocks(), ref.blocks.size());
  ASSERT_EQ(index.size(), ref.blocks.size());
  if (fmt.b == 0) {
    EXPECT_TRUE(index.block_ptr.empty());
  } else {
    const sparse::Index side = sparse::Index{1} << fmt.b;
    ASSERT_EQ(index.block_rows(),
              static_cast<std::size_t>((a.rows() + side - 1) / side));
    BandScatter band(fmt.b, a.cols());
    std::size_t j = 0;
    for (std::size_t br = 0; br < index.block_rows(); ++br) {
      const auto r0 = static_cast<sparse::Index>(br) << fmt.b;
      const sparse::Index r1 = std::min(r0 + side, a.rows());
      rf.quantized().visit([&](auto arrays) { band.scatter(arrays, r0, r1); });
      const std::span<const sparse::Index> touched = band.block_cols();
      EXPECT_EQ(index.block_ptr[br], j);
      std::size_t run = 0;
      for (; j < ref.blocks.size() &&
             ref.blocks[j].brow == static_cast<sparse::Index>(br);
           ++j) {
        const RefBlock& block = ref.blocks[j];
        EXPECT_EQ(sparse::Index{index.block_col[j]}, block.bcol);
        EXPECT_EQ(int{index.base[j]}, block.base);
        if (block.entries.empty()) continue;  // flushed: no run
        ASSERT_LT(run, touched.size());
        EXPECT_EQ(touched[run], block.bcol);
        const std::span<const double> values = band.run_values(run);
        const std::span<const BandScatter::Slot> slots = band.run_slots(run);
        ASSERT_EQ(values.size(), block.entries.size());
        for (std::size_t p = 0; p < values.size(); ++p) {
          EXPECT_EQ(slots[p].r, block.entries[p].r);
          EXPECT_EQ(slots[p].c, block.entries[p].c);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(values[p]),
                    std::bit_cast<std::uint64_t>(block.entries[p].q));
        }
        ++run;
      }
      EXPECT_EQ(run, touched.size());  // every run is an indexed block
    }
    EXPECT_EQ(j, ref.blocks.size());
    EXPECT_EQ(index.block_ptr.back(), index.size());
  }

  const sparse::Csr q = rf.quantized().to_csr();
  EXPECT_EQ(q.rows(), ref.quantized.rows());
  EXPECT_EQ(q.cols(), ref.quantized.cols());
  EXPECT_TRUE(same_bits(q.row_ptr(), ref.quantized.row_ptr()));
  EXPECT_TRUE(same_bits(q.col_idx(), ref.quantized.col_idx()));
  EXPECT_TRUE(same_bits(q.values(), ref.quantized.values()));

  const ConversionStats& s = rf.stats();
  EXPECT_EQ(s.values, ref.stats.values);
  EXPECT_EQ(s.overflowed, ref.stats.overflowed);
  EXPECT_EQ(s.underflowed, ref.stats.underflowed);
  EXPECT_EQ(s.flushed_to_zero, ref.stats.flushed_to_zero);
  EXPECT_EQ(s.locality_bits, ref.stats.locality_bits);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.rel_error_fro),
            std::bit_cast<std::uint64_t>(ref.stats.rel_error_fro))
      << s.rel_error_fro << " vs " << ref.stats.rel_error_fro;
  EXPECT_EQ(s.probe_steps, 0);
}

// A rows x cols matrix with `per_row` random columns per row, rows listed in
// `empty_rows` left empty, and values drawn as gaussian * 2^[-40, 40], with a
// sprinkling of exact zeros, denormals, infinities and NaNs when `specials`.
sparse::Csr random_matrix(sparse::Index rows, sparse::Index cols, int per_row,
                          std::uint64_t seed, bool specials,
                          const std::vector<std::pair<sparse::Index,
                                                      sparse::Index>>&
                              empty_rows) {
  util::Rng rng(seed);
  std::vector<sparse::Index> row_ptr{0};
  std::vector<sparse::Index> col_idx;
  std::vector<double> values;
  std::vector<bool> used(static_cast<std::size_t>(cols));
  for (sparse::Index r = 0; r < rows; ++r) {
    bool skip = false;
    for (const auto& [lo, hi] : empty_rows) skip = skip || (r >= lo && r < hi);
    if (!skip) {
      std::fill(used.begin(), used.end(), false);
      for (int i = 0; i < per_row; ++i) {
        used[rng.below(static_cast<std::uint64_t>(cols))] = true;
      }
      for (sparse::Index c = 0; c < cols; ++c) {
        if (!used[static_cast<std::size_t>(c)]) continue;
        double v = std::ldexp(rng.gaussian(),
                              static_cast<int>(rng.below(81)) - 40);
        if (specials) {
          switch (rng.below(40)) {
            case 0: v = 0.0; break;
            case 1: v = std::numeric_limits<double>::denorm_min() * 3.0; break;
            case 2: v = -std::numeric_limits<double>::infinity(); break;
            case 3: v = std::numeric_limits<double>::quiet_NaN(); break;
            case 4: v = 1e-310; break;
            default: break;
          }
        }
        col_idx.push_back(c);
        values.push_back(v);
      }
    }
    row_ptr.push_back(static_cast<sparse::Index>(values.size()));
  }
  return sparse::Csr(rows, cols, std::move(row_ptr), std::move(col_idx),
                     std::move(values));
}

// 24x24 whose only entries in block columns 1 (b = 3: columns 8..15) and
// 2 (b = 3: 16..23; b = 4: 16..31) of the first band are exact zeros: those
// blocks quantize to nothing, so they have no CSR entries, yet the
// conversion must keep them as (empty) blocks.
sparse::Csr zero_block_matrix() {
  return sparse::Csr(24, 24, {0, 3, 5, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7,
                              7, 8, 8, 8, 8, 8, 8, 8, 8},
                     {0, 9, 10, 1, 12, 20, 9, 17},
                     {1.0, 0.0, -0.0, 2.0, 0.0, 0.0, 3.0, 4.0});
}

TEST(RefloatMatrix, AllZeroBlockStaysInTheIndex) {
  Format fmt = default_format();
  fmt.b = 3;
  const RefloatMatrix rf(zero_block_matrix(), fmt);
  EXPECT_EQ(rf.quantized().nnz(), 4);
  // Band 0 holds blocks at block columns 0, 1, 2; only column 0 survives
  // quantization. Band 1 holds one block, band 2 one.
  const RefloatMatrix::BlockIndex& index = rf.block_index();
  ASSERT_EQ(index.block_ptr, (std::vector<std::size_t>{0, 3, 4, 5}));
  EXPECT_EQ(index.block_col, (std::vector<std::int32_t>{0, 1, 2, 1, 2}));
  EXPECT_EQ(rf.nonzero_blocks(), 5u);
  // The packed operand's band-0 entries all sit in block column 0; the
  // indexed blocks at columns 1 and 2 hold none.
  BandScatter band(fmt.b, 24);
  rf.quantized().visit([&](auto arrays) { band.scatter(arrays, 0, 8); });
  ASSERT_EQ(band.block_cols().size(), 1u);
  EXPECT_EQ(band.block_cols()[0], 0);
  EXPECT_EQ(band.run_values(0).size(), 2u);
}

// The packed operand stores fp32 codes only when every dequantized value
// survives the round trip through float; one value that does not (here
// 1/3 under the identity-like FP64 scalar format) switches the whole
// matrix to fp64, and either way to_csr() returns the values unchanged.
TEST(RefloatMatrix, ValueCodeIsFp32OnlyWhenEveryValueIsExact) {
  std::vector<sparse::Triplet> triplets;
  for (sparse::Index i = 0; i < 40; ++i) {
    triplets.push_back({i, i, 2.0 + static_cast<double>(i)});
    if (i > 0) triplets.push_back({i, i - 1, -0.75});
  }
  const sparse::Csr exact = sparse::Csr::from_triplets(40, 40, triplets);
  triplets.push_back({39, 0, 1.0 / 3.0});
  const sparse::Csr one_inexact = sparse::Csr::from_triplets(40, 40, triplets);

  const auto expect_packed = [](const sparse::Csr& in, sparse::ValueCode code,
                                std::size_t value_bytes) {
    const RefloatMatrix rf(in, format_fp64());
    EXPECT_EQ(rf.quantized().code(), code);
    const sparse::Csr out = rf.quantized().to_csr();
    EXPECT_TRUE(std::equal(in.values().begin(), in.values().end(),
                           out.values().begin(), out.values().end()));
    EXPECT_TRUE(std::equal(in.col_idx().begin(), in.col_idx().end(),
                           out.col_idx().begin(), out.col_idx().end()));
    const auto rows = static_cast<std::size_t>(in.rows());
    const auto nnz = static_cast<std::size_t>(in.nnz());
    EXPECT_EQ(rf.quantized().memory_bytes(),
              (rows + 1) * 8 + nnz * (4 + value_bytes));
  };
  expect_packed(exact, sparse::ValueCode::kFp32, 4);
  expect_packed(one_inexact, sparse::ValueCode::kFp64, 8);

  // Blocked formats follow the same rule: f = 3 keeps every value on a
  // 4-bit significand (fp32), f = 30 does not fit float's 24 bits.
  Format wide = default_format();
  wide.f = 30;
  EXPECT_EQ(RefloatMatrix(test_matrix(), default_format()).quantized().code(),
            sparse::ValueCode::kFp32);
  EXPECT_EQ(RefloatMatrix(test_matrix(), wide).quantized().code(),
            sparse::ValueCode::kFp64);
}

// Packed columns are uint32: a matrix with more columns than that can
// address is rejected up front — before the conversion sizes anything by
// the column count — rather than having its column indices truncated.
TEST(RefloatMatrix, RejectsMoreColumnsThanUint32CanAddress) {
  const sparse::Index too_wide =
      sparse::Index{std::numeric_limits<std::uint32_t>::max()} + 2;
  const sparse::Csr a(1, too_wide, {0, 0}, {}, {});
  for (const Format& fmt : {format_fp32(), default_format()}) {
    ASSERT_THROW(RefloatMatrix(a, fmt), std::invalid_argument);
  }
  const sparse::Csr widest(
      1, sparse::Index{std::numeric_limits<std::uint32_t>::max()}, {0, 0},
      {}, {});
  EXPECT_EQ(RefloatMatrix(widest, format_fp32()).quantized().cols(),
            widest.cols());
}

TEST(RefloatMatrix, StreamedConversionMatchesReference) {
  QuantPolicy flush;
  flush.underflow = UnderflowMode::kFlushToZero;
  flush.overflow = OverflowMode::kClampOffsetKeepFraction;
  const std::vector<std::pair<std::string, QuantPolicy>> policies = {
      {"default", QuantPolicy{}},
      {"paper_literal", paper_literal_policy()},
      {"flush", flush}};
  std::vector<Format> formats;
  for (const int b : {3, 4, 7}) {
    Format f = default_format();
    f.b = b;
    formats.push_back(f);
  }
  formats.push_back(default_format_fv16());
  formats.push_back(format_bfloat16());  // b = 0: the scalar path

  // Rectangular, edges not a multiple of any block side; rows 40..47 and a
  // whole 128-row band (130..290) empty, plus 2^+-40 spread and specials.
  const std::vector<std::pair<std::string, sparse::Csr>> inputs = {
      {"wide", random_matrix(301, 517, 9, 1, true, {{40, 48}, {130, 290}})},
      {"tall", random_matrix(523, 77, 5, 2, true, {{0, 3}, {500, 523}})},
      {"finite", random_matrix(260, 260, 30, 3, false, {})},
      {"empty", sparse::Csr(5, 9, std::vector<sparse::Index>(6, 0), {}, {})},
      {"zero_block", zero_block_matrix()},
      {"crystm01", gen::build(*gen::find_spec(353))},
  };
  for (const auto& [name, a] : inputs) {
    for (const Format& fmt : formats) {
      for (const auto& [policy_name, policy] : policies) {
        expect_matches_reference(a, fmt, policy, name + "/" + policy_name);
      }
    }
  }
}

}  // namespace
}  // namespace refloat::core

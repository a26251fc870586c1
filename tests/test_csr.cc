#include "src/sparse/csr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace refloat::sparse {
namespace {

Csr small_matrix() {
  // [ 2 -1  0 ]
  // [-1  2 -1 ]
  // [ 0 -1  2 ]
  return Csr::from_triplets(3, 3,
                            {{0, 0, 2.0},
                             {0, 1, -1.0},
                             {1, 0, -1.0},
                             {1, 1, 2.0},
                             {1, 2, -1.0},
                             {2, 1, -1.0},
                             {2, 2, 2.0}});
}

TEST(Csr, FromTripletsSumsDuplicatesAndDropsZeros) {
  const Csr a = Csr::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 0, 2.0}, {1, 1, 5.0}, {1, 0, 0.0}});
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(a.values()[0], 3.0);
  EXPECT_DOUBLE_EQ(a.values()[1], 5.0);
}

TEST(Csr, SpmvMatchesDenseReference) {
  const Csr a = small_matrix();
  const std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y(3);
  a.spmv(x, y);
  // Dense reference: [2-2, -1+4-3, -2+6] = [0, 0, 4].
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 4.0);
}

TEST(Csr, SpmvRandomMatchesDense) {
  // Pseudo-random 16x16 with a dense mirror.
  const Index n = 16;
  std::vector<Triplet> triplets;
  double dense[16][16] = {};
  unsigned state = 12345;
  auto next = [&state] {
    state = state * 1664525u + 1013904223u;
    return static_cast<double>(state >> 16) / 65536.0 - 0.5;
  };
  for (Index r = 0; r < n; ++r) {
    for (Index c = 0; c < n; ++c) {
      const double u = next();
      if (u > 0.2) continue;
      dense[r][c] = u;
      triplets.push_back({r, c, u});
    }
  }
  const Csr a = Csr::from_triplets(n, n, triplets);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] = next();
  }
  std::vector<double> y(static_cast<std::size_t>(n));
  a.spmv(x, y);
  for (Index r = 0; r < n; ++r) {
    double ref = 0.0;
    for (Index c = 0; c < n; ++c) {
      ref += dense[r][c] * x[static_cast<std::size_t>(c)];
    }
    EXPECT_NEAR(y[static_cast<std::size_t>(r)], ref, 1e-12);
  }
}

TEST(Csr, ShiftedAddsDiagonal) {
  const Csr a = small_matrix().shifted(0.5);
  const std::vector<double> x = {1.0, 0.0, 0.0};
  std::vector<double> y(3);
  a.spmv(x, y);
  EXPECT_DOUBLE_EQ(y[0], 2.5);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
}

TEST(Csr, PermutedSymmetricPreservesSpectrumAction) {
  const Csr a = small_matrix();
  const std::vector<Index> perm = {2, 0, 1};  // perm[new] = old
  const Csr p = a.permuted_symmetric(perm);
  EXPECT_EQ(p.nnz(), a.nnz());
  // (PAP^T) (Px) = P (Ax): check via x = e_old0.
  std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> ax(3);
  a.spmv(x, ax);
  // Px: new index i holds old perm[i].
  std::vector<double> px = {x[2], x[0], x[1]};
  std::vector<double> pax(3);
  p.spmv(px, pax);
  EXPECT_DOUBLE_EQ(pax[0], ax[2]);
  EXPECT_DOUBLE_EQ(pax[1], ax[0]);
  EXPECT_DOUBLE_EQ(pax[2], ax[1]);
}

// The triplet-path shifted and permuted_symmetric that the direct row
// builders replaced, kept as the references they must match bit for bit.
Csr reference_shifted(const Csr& a, double s) {
  std::vector<Triplet> triplets;
  for (Index r = 0; r < a.rows(); ++r) {
    for (Index k = a.row_ptr()[static_cast<std::size_t>(r)];
         k < a.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      triplets.push_back({r, a.col_idx()[static_cast<std::size_t>(k)],
                          a.values()[static_cast<std::size_t>(k)]});
    }
    triplets.push_back({r, r, s});
  }
  return Csr::from_triplets(a.rows(), a.cols(), std::move(triplets));
}

Csr reference_permuted_symmetric(const Csr& a, const std::vector<Index>& perm) {
  std::vector<Index> inverse(perm.size());
  for (std::size_t n = 0; n < perm.size(); ++n) {
    inverse[static_cast<std::size_t>(perm[n])] = static_cast<Index>(n);
  }
  std::vector<Triplet> triplets;
  for (Index r = 0; r < a.rows(); ++r) {
    for (Index k = a.row_ptr()[static_cast<std::size_t>(r)];
         k < a.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
      triplets.push_back(
          {inverse[static_cast<std::size_t>(r)],
           inverse[static_cast<std::size_t>(
               a.col_idx()[static_cast<std::size_t>(k)])],
           a.values()[static_cast<std::size_t>(k)]});
    }
  }
  return Csr::from_triplets(a.rows(), a.cols(), std::move(triplets));
}

void expect_identical(const Csr& got, const Csr& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_TRUE(got.canonical());
  EXPECT_TRUE(std::ranges::equal(got.row_ptr(), want.row_ptr()));
  EXPECT_TRUE(std::ranges::equal(got.col_idx(), want.col_idx()));
  ASSERT_EQ(got.values().size(), want.values().size());
  for (std::size_t k = 0; k < got.values().size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.values()[k]),
              std::bit_cast<std::uint64_t>(want.values()[k]))
        << "entry " << k;
  }
}

// Rows 0 and 2 store a diagonal, row 1 has none, row 3 holds an explicit
// zero on and off the diagonal, row 4 stores only a -0.0, row 5 is empty.
Csr ragged_matrix() {
  return Csr(6, 6, {0, 3, 5, 7, 9, 10, 10}, {0, 2, 5, 0, 3, 1, 2, 1, 3, 4},
             {2.0, -1.0, 0.5, -1.0, 4.0, 3.0, -3.0, 0.0, 0.0, -0.0});
}

TEST(Csr, ShiftedMatchesTripletPath) {
  const Csr a = ragged_matrix();
  ASSERT_TRUE(a.canonical());
  // -2.0 cancels row 0's diagonal exactly and 3.0 cancels row 2's.
  for (const double s : {0.5, -2.0, 3.0, 0.0, -0.0, 1e-300}) {
    SCOPED_TRACE(s);
    expect_identical(a.shifted(s), reference_shifted(a, s));
  }
  expect_identical(small_matrix().shifted(-2.0),
                   reference_shifted(small_matrix(), -2.0));
  const Csr cancelled = a.shifted(-2.0);
  EXPECT_EQ(cancelled.row_ptr()[1], 2);  // row 0 lost its diagonal
}

TEST(Csr, PermutedSymmetricMatchesTripletPath) {
  const Csr a = ragged_matrix();
  std::vector<Index> identity(6);
  std::vector<Index> reversing(6);
  for (Index i = 0; i < 6; ++i) {
    identity[static_cast<std::size_t>(i)] = i;
    reversing[static_cast<std::size_t>(i)] = 5 - i;
  }
  const std::vector<Index> shuffled = {3, 0, 5, 1, 4, 2};
  for (const auto& perm : {identity, reversing, shuffled}) {
    expect_identical(a.permuted_symmetric(perm),
                     reference_permuted_symmetric(a, perm));
  }
  // The identity drops only the explicit zeros.
  EXPECT_EQ(a.permuted_symmetric(identity).nnz(), a.nnz() - 3);
}

TEST(Csr, ShiftedRejectsNonSquareAndNonCanonicalInput) {
  // 3 x 2: row 2's diagonal would be column 2 >= cols().
  const Csr tall = Csr::from_triplets(3, 2, {{0, 0, 1.0}, {2, 1, 1.0}});
  EXPECT_THROW((void)tall.shifted(1.0), std::invalid_argument);
  const Csr unsorted(2, 2, {0, 2, 2}, {1, 0}, {1.0, 2.0});
  EXPECT_THROW((void)unsorted.shifted(1.0), std::invalid_argument);
  const Csr repeated(2, 2, {0, 2, 2}, {0, 0}, {1.0, 2.0});
  EXPECT_THROW((void)repeated.shifted(1.0), std::invalid_argument);
}

TEST(Csr, PermutedSymmetricRejectsBadPermutationAndInput) {
  const Csr a = small_matrix();
  const std::vector<std::vector<Index>> bad = {
      {0, 1},        // too short
      {0, 1, 2, 3},  // too long
      {0, 1, 3},     // out of range
      {0, -1, 2},    // negative
      {0, 1, 1},     // repeats an index
  };
  for (const auto& perm : bad) {
    EXPECT_THROW((void)a.permuted_symmetric(perm), std::invalid_argument);
  }
  const std::vector<Index> two = {1, 0};
  const Csr wide = Csr::from_triplets(2, 3, {{0, 2, 1.0}, {1, 0, 1.0}});
  EXPECT_THROW((void)wide.permuted_symmetric(two), std::invalid_argument);
  const Csr unsorted(2, 2, {0, 2, 2}, {1, 0}, {1.0, 2.0});
  EXPECT_THROW((void)unsorted.permuted_symmetric(two), std::invalid_argument);
}

TEST(Csr, BandwidthAndNnzPerRow) {
  const Csr a = small_matrix();
  EXPECT_EQ(a.bandwidth(), 1);
  EXPECT_NEAR(a.nnz_per_row(), 7.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace refloat::sparse

#include "src/sparse/csr.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace refloat::sparse {

Csr::Csr(Index rows, Index cols, std::vector<Index> row_ptr,
         std::vector<Index> col_idx, std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  if (row_ptr_.size() != static_cast<std::size_t>(rows_) + 1 ||
      col_idx_.size() != values_.size()) {
    throw std::invalid_argument("Csr: inconsistent array sizes");
  }
}

Csr Csr::from_triplets(Index rows, Index cols,
                       std::vector<Triplet> triplets) {
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.r != b.r ? a.r < b.r : a.c < b.c;
            });
  std::vector<Index> row_ptr(static_cast<std::size_t>(rows) + 1, 0);
  std::vector<Index> col_idx;
  std::vector<double> values;
  col_idx.reserve(triplets.size());
  values.reserve(triplets.size());
  for (std::size_t i = 0; i < triplets.size();) {
    const Index r = triplets[i].r;
    const Index c = triplets[i].c;
    double sum = 0.0;
    while (i < triplets.size() && triplets[i].r == r && triplets[i].c == c) {
      sum += triplets[i].v;
      ++i;
    }
    if (sum == 0.0) continue;
    col_idx.push_back(c);
    values.push_back(sum);
    ++row_ptr[static_cast<std::size_t>(r) + 1];
  }
  for (Index r = 0; r < rows; ++r) {
    row_ptr[static_cast<std::size_t>(r) + 1] +=
        row_ptr[static_cast<std::size_t>(r)];
  }
  return Csr(rows, cols, std::move(row_ptr), std::move(col_idx),
             std::move(values));
}

bool Csr::canonical() const {
  if (row_ptr_.empty()) return rows_ == 0 && values_.empty();
  const Index nnz_end = nnz();
  if (row_ptr_.front() != 0 || row_ptr_.back() != nnz_end) return false;
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows_); ++r) {
    const Index begin = row_ptr_[r];
    const Index end = row_ptr_[r + 1];
    // Bound every row before indexing col_idx_: a later row may decrease.
    if (end < begin || end > nnz_end) return false;
    Index prev = -1;
    for (Index k = begin; k < end; ++k) {
      const Index c = col_idx_[static_cast<std::size_t>(k)];
      if (c <= prev || c >= cols_) return false;
      prev = c;
    }
  }
  return true;
}

void Csr::spmv(std::span<const double> x, std::span<double> y) const {
  for (Index r = 0; r < rows_; ++r) {
    const Index begin = row_ptr_[static_cast<std::size_t>(r)];
    const Index end = row_ptr_[static_cast<std::size_t>(r) + 1];
    double acc = 0.0;
    for (Index k = begin; k < end; ++k) {
      acc += values_[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(r)] = acc;
  }
}

Csr Csr::shifted(double s) const {
  std::vector<Triplet> triplets;
  triplets.reserve(values_.size() + static_cast<std::size_t>(rows_));
  for (Index r = 0; r < rows_; ++r) {
    for (Index k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      triplets.push_back({r, col_idx_[static_cast<std::size_t>(k)],
                          values_[static_cast<std::size_t>(k)]});
    }
    triplets.push_back({r, r, s});
  }
  return from_triplets(rows_, cols_, std::move(triplets));
}

Csr Csr::permuted_symmetric(std::span<const Index> perm) const {
  // perm[new] = old; invert so we can relabel stored coordinates.
  std::vector<Index> inverse(perm.size());
  for (std::size_t n = 0; n < perm.size(); ++n) {
    inverse[static_cast<std::size_t>(perm[n])] = static_cast<Index>(n);
  }
  std::vector<Triplet> triplets;
  triplets.reserve(values_.size());
  for (Index r = 0; r < rows_; ++r) {
    for (Index k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      triplets.push_back(
          {inverse[static_cast<std::size_t>(r)],
           inverse[static_cast<std::size_t>(
               col_idx_[static_cast<std::size_t>(k)])],
           values_[static_cast<std::size_t>(k)]});
    }
  }
  return from_triplets(rows_, cols_, std::move(triplets));
}

Csr Csr::scaled_symmetric(std::span<const double> d) const {
  Csr out = *this;
  for (Index r = 0; r < rows_; ++r) {
    for (Index k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      out.values_[static_cast<std::size_t>(k)] *=
          d[static_cast<std::size_t>(r)] *
          d[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
    }
  }
  return out;
}

double Csr::frobenius_norm() const {
  double acc = 0.0;
  for (const double v : values_) acc += v * v;
  return std::sqrt(acc);
}

Index Csr::bandwidth() const {
  Index band = 0;
  for (Index r = 0; r < rows_; ++r) {
    for (Index k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      band = std::max(band,
                      std::abs(col_idx_[static_cast<std::size_t>(k)] - r));
    }
  }
  return band;
}

}  // namespace refloat::sparse

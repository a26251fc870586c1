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
  if (rows_ != cols_) {
    throw std::invalid_argument("Csr::shifted: matrix is not square");
  }
  if (!canonical()) {
    throw std::invalid_argument("Csr::shifted: input is not canonical");
  }
  // Row-wise merge of the sorted row with (r, r, s). a_rr + s is the
  // two-term sum from_triplets formed, in either order.
  return from_rows(rows_, cols_, [this, s](Index r, auto&& put) {
    bool diagonal_done = false;
    for (Index k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      const Index c = col_idx_[static_cast<std::size_t>(k)];
      const double v = values_[static_cast<std::size_t>(k)];
      if (c == r) {
        put(c, v + s);
        diagonal_done = true;
        continue;
      }
      if (c > r && !diagonal_done) {
        put(r, s);
        diagonal_done = true;
      }
      put(c, v);
    }
    if (!diagonal_done) put(r, s);
  });
}

Csr Csr::permuted_symmetric(std::span<const Index> perm) const {
  if (rows_ != cols_) {
    throw std::invalid_argument(
        "Csr::permuted_symmetric: matrix is not square");
  }
  if (perm.size() != static_cast<std::size_t>(rows_)) {
    throw std::invalid_argument(
        "Csr::permuted_symmetric: perm size differs from rows()");
  }
  // perm[new] = old; invert so we can relabel stored columns.
  std::vector<Index> inverse(perm.size(), -1);
  for (std::size_t n = 0; n < perm.size(); ++n) {
    const Index old = perm[n];
    if (old < 0 || old >= rows_ ||
        inverse[static_cast<std::size_t>(old)] != -1) {
      throw std::invalid_argument(
          "Csr::permuted_symmetric: perm is not a bijection of [0, rows)");
    }
    inverse[static_cast<std::size_t>(old)] = static_cast<Index>(n);
  }
  if (!canonical()) {
    throw std::invalid_argument(
        "Csr::permuted_symmetric: input is not canonical");
  }
  // New row i is old row perm[i] without its explicit zeros, columns
  // relabelled and then sorted within the row. The old rows are read in
  // order and each is written to its new slot: the reads stream, and the
  // relabelling reads inverse near the row's own index, where a banded
  // matrix keeps its columns.
  std::vector<Index> row_ptr(static_cast<std::size_t>(rows_) + 1, 0);
  for (std::size_t r = 0; r < inverse.size(); ++r) {
    Index kept = 0;
    for (Index k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      if (values_[static_cast<std::size_t>(k)] != 0.0) ++kept;
    }
    row_ptr[static_cast<std::size_t>(inverse[r]) + 1] = kept;
  }
  for (std::size_t i = 0; i < perm.size(); ++i) row_ptr[i + 1] += row_ptr[i];
  std::vector<Index> col_idx(static_cast<std::size_t>(row_ptr.back()));
  std::vector<double> values(col_idx.size());
  for (std::size_t r = 0; r < inverse.size(); ++r) {
    auto out = static_cast<std::size_t>(
        row_ptr[static_cast<std::size_t>(inverse[r])]);
    for (Index k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const double v = values_[static_cast<std::size_t>(k)];
      if (v == 0.0) continue;
      col_idx[out] = inverse[static_cast<std::size_t>(
          col_idx_[static_cast<std::size_t>(k)])];
      values[out] = v;
      ++out;
    }
  }
  std::vector<std::pair<Index, double>> row;
  for (std::size_t i = 0; i < perm.size(); ++i) {
    const auto begin = static_cast<std::size_t>(row_ptr[i]);
    const auto end = static_cast<std::size_t>(row_ptr[i + 1]);
    row.clear();
    for (std::size_t k = begin; k < end; ++k) {
      row.emplace_back(col_idx[k], values[k]);
    }
    std::sort(row.begin(), row.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t k = begin; k < end; ++k) {
      col_idx[k] = row[k - begin].first;
      values[k] = row[k - begin].second;
    }
  }
  return Csr(rows_, cols_, std::move(row_ptr), std::move(col_idx),
             std::move(values));
}

void Csr::scale_symmetric(std::span<const double> d) {
  for (Index r = 0; r < rows_; ++r) {
    for (Index k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      values_[static_cast<std::size_t>(k)] *=
          d[static_cast<std::size_t>(r)] *
          d[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
    }
  }
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

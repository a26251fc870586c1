// Compressed-sparse-row matrix — the exact-value (FP64) representation every
// other layer starts from.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace refloat::sparse {

using Index = std::int64_t;

struct Triplet {
  Index r = 0;
  Index c = 0;
  double v = 0.0;
};

class Csr {
 public:
  Csr() = default;
  Csr(Index rows, Index cols, std::vector<Index> row_ptr,
      std::vector<Index> col_idx, std::vector<double> values);

  // Builds from (row, col, value) triplets; duplicate coordinates are summed,
  // explicit zeros are dropped.
  static Csr from_triplets(Index rows, Index cols,
                           std::vector<Triplet> triplets);

  // Builds row by row without a global sort. emit(r, put) calls put(c, v)
  // for row r's entries in strictly ascending column order; explicit zeros
  // are dropped, as from_triplets drops zero sums. emit runs twice per row,
  // once to size the arrays exactly and once to fill them, so it must
  // emit the same entries both times.
  template <typename EmitRow>
  static Csr from_rows(Index rows, Index cols, EmitRow&& emit);

  [[nodiscard]] Index rows() const { return rows_; }
  [[nodiscard]] Index cols() const { return cols_; }
  [[nodiscard]] Index nnz() const {
    return static_cast<Index>(values_.size());
  }
  [[nodiscard]] double nnz_per_row() const {
    return rows_ == 0 ? 0.0
                      : static_cast<double>(nnz()) / static_cast<double>(rows_);
  }

  [[nodiscard]] std::span<const Index> row_ptr() const { return row_ptr_; }
  [[nodiscard]] std::span<const Index> col_idx() const { return col_idx_; }
  [[nodiscard]] std::span<const double> values() const { return values_; }
  [[nodiscard]] std::span<double> mutable_values() { return values_; }

  // True when the arrays form a canonical CSR: row_ptr starts at 0, never
  // decreases and ends at nnz(), and within every row the columns lie in
  // [0, cols()) and strictly ascend (so no coordinate repeats). Explicit
  // zeros are allowed. from_triplets always produces canonical output; the
  // ReFloat conversion requires it and the binary cache loader checks it.
  [[nodiscard]] bool canonical() const;

  // y = A x. x must have cols() entries, y rows() entries.
  void spmv(std::span<const double> x, std::span<double> y) const;

  // A + s * I: s is added to each stored diagonal entry, or inserted where
  // a row has none; entries that come out exactly zero are dropped.
  // Throws std::invalid_argument unless the matrix is square and canonical.
  [[nodiscard]] Csr shifted(double s) const;

  // P A P^T for the permutation perm, where perm[new_index] = old_index;
  // explicit zeros are dropped. Throws std::invalid_argument unless the
  // matrix is square and canonical and perm is a bijection of [0, rows()).
  [[nodiscard]] Csr permuted_symmetric(std::span<const Index> perm) const;

  // In place: a_ij *= d[i] * d[j] (diagonal similarity scaling; keeps the
  // sparsity, symmetry and definiteness).
  void scale_symmetric(std::span<const double> d);

  [[nodiscard]] double frobenius_norm() const;

  // Largest |i - j| over stored entries.
  [[nodiscard]] Index bandwidth() const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Index> row_ptr_;  // size rows_ + 1
  std::vector<Index> col_idx_;  // size nnz
  std::vector<double> values_;  // size nnz
};

template <typename EmitRow>
Csr Csr::from_rows(Index rows, Index cols, EmitRow&& emit) {
  std::vector<Index> row_ptr(static_cast<std::size_t>(rows) + 1, 0);
  for (Index r = 0; r < rows; ++r) {
    Index count = 0;
    emit(r, [&count](Index, double v) { count += v != 0.0 ? 1 : 0; });
    row_ptr[static_cast<std::size_t>(r) + 1] =
        row_ptr[static_cast<std::size_t>(r)] + count;
  }
  std::vector<Index> col_idx(static_cast<std::size_t>(row_ptr.back()));
  std::vector<double> values(col_idx.size());
  std::size_t k = 0;
  for (Index r = 0; r < rows; ++r) {
    emit(r, [&](Index c, double v) {
      if (v == 0.0) return;
      if (k == col_idx.size()) {
        throw std::logic_error("Csr::from_rows: emit is not deterministic");
      }
      col_idx[k] = c;
      values[k] = v;
      ++k;
    });
  }
  return Csr(rows, cols, std::move(row_ptr), std::move(col_idx),
             std::move(values));
}

}  // namespace refloat::sparse

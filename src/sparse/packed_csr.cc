#include "src/sparse/packed_csr.h"

#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace refloat::sparse {

namespace {

// True when v survives double -> float -> double with its bit pattern
// unchanged.
bool fp32_exact(double v) {
  // A finite double beyond float's range has no float to convert to (the
  // conversion would be undefined behaviour), so it is not exact.
  if (std::isfinite(v) && std::abs(v) > std::numeric_limits<float>::max()) {
    return false;
  }
  const auto narrowed = static_cast<double>(static_cast<float>(v));
  return std::bit_cast<std::uint64_t>(narrowed) ==
         std::bit_cast<std::uint64_t>(v);
}

}  // namespace

PackedCsr::Builder::Builder(Index rows, Index cols, std::size_t nnz_hint)
    : rows_(rows), cols_(cols) {
  if (cols > Index{std::numeric_limits<std::uint32_t>::max()}) {
    throw std::invalid_argument(
        "PackedCsr: more columns than a uint32 column index can address");
  }
  row_ptr_.reserve(static_cast<std::size_t>(rows) + 1);
  row_ptr_.push_back(0);
  col_.reserve(nnz_hint);
  val32_.reserve(nnz_hint);
}

void PackedCsr::Builder::push(Index col, double v) {
  col_.push_back(static_cast<std::uint32_t>(col));
  if (wide_) {
    val64_.push_back(v);
    return;
  }
  if (fp32_exact(v)) {
    val32_.push_back(static_cast<float>(v));
    return;
  }
  // The first value fp32 cannot hold: widen what is stored (exact) and keep
  // the rest in fp64.
  wide_ = true;
  val64_.reserve(col_.capacity());
  val64_.assign(val32_.begin(), val32_.end());
  std::vector<float>().swap(val32_);
  val64_.push_back(v);
}

void PackedCsr::Builder::end_row() {
  row_ptr_.push_back(static_cast<Index>(col_.size()));
}

PackedCsr PackedCsr::Builder::finish() {
  if (row_ptr_.size() != static_cast<std::size_t>(rows_) + 1) {
    throw std::logic_error("PackedCsr::Builder: not every row was closed");
  }
  PackedCsr out;
  out.rows_ = rows_;
  out.cols_ = cols_;
  out.code_ = wide_ ? ValueCode::kFp64 : ValueCode::kFp32;
  out.row_ptr_ = std::move(row_ptr_);
  out.col_ = std::move(col_);
  out.val32_ = std::move(val32_);
  out.val64_ = std::move(val64_);
  return out;
}

PackedCsr::MutableValues PackedCsr::mutable_values() {
  if (code_ == ValueCode::kFp32) return std::span<float>(val32_);
  return std::span<double>(val64_);
}

Csr PackedCsr::to_csr() const {
  std::vector<Index> col_idx(col_.begin(), col_.end());
  std::vector<double> values = visit([&](auto a) {
    return std::vector<double>(a.val, a.val + col_.size());
  });
  return Csr(rows_, cols_, row_ptr_, std::move(col_idx), std::move(values));
}

}  // namespace refloat::sparse

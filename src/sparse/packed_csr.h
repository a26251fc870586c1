// PackedCsr: the compact form of a CSR operand whose values are known to be
// exact in a narrower code — the ReFloat resident operand
// (core::RefloatMatrix::quantized()). row_ptr stays sparse::Index; columns
// are uint32; values are stored in ONE code per matrix: fp32 when every
// value round-trips exactly through float, otherwise fp64. A ReFloat value
// is sign x 1.f x 2^(base + offset) with a few fraction bits, so the fp32
// code holds the default formats exactly; a wide format (f > 23, or an
// exponent outside fp32's range) falls back to fp64.
//
// Decoding is a widening conversion (float -> double is exact), so every
// consumer that reads a value as double — the row kernels, the ABFT
// checksum, bit-true programming, the Lanczos probe — computes bit for bit
// what it computed over a 16-byte-per-nonzero sparse::Csr of the same
// values.
// Row loops are templated on the value type through PackedRows and
// instantiated once per code (visit()).
#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "src/sparse/csr.h"

namespace refloat::sparse {

// The value code of a PackedCsr.
enum class ValueCode : std::uint8_t {
  kFp32 = 0,
  kFp64 = 1,
};

// Raw row-major arrays of a CSR-like operand — what the templated row loops
// read. C is the column type, V the stored value type.
template <typename C, typename V>
struct RowArrays {
  const Index* row_ptr = nullptr;
  const C* col = nullptr;
  const V* val = nullptr;
};

template <typename V>
using PackedRows = RowArrays<std::uint32_t, V>;

// The FP64 CSR's arrays in the same form, for loops shared with sparse::Csr.
inline RowArrays<Index, double> row_arrays(const Csr& a) {
  return {a.row_ptr().data(), a.col_idx().data(), a.values().data()};
}

class PackedCsr {
 public:
  // Appends a canonical operand row by row, choosing the code as it goes:
  // values stay fp32 while every pushed value is fp32-exact (its bit
  // pattern survives double -> float -> double); the first one that is not
  // widens the values pushed so far to fp64 (exactly) and the rest are
  // stored as fp64.
  class Builder {
   public:
    // Throws std::invalid_argument when cols exceeds the uint32 column
    // range, before allocating anything. `nnz_hint` reserves the column and
    // fp32 value arrays.
    Builder(Index rows, Index cols, std::size_t nnz_hint);

    // Appends entry (current row, col) = v to the current row; columns must
    // ascend within a row.
    void push(Index col, double v);
    // Closes the current row.
    void end_row();
    // The operand; every row must have been closed.
    [[nodiscard]] PackedCsr finish();

   private:
    Index rows_;
    Index cols_;
    std::vector<Index> row_ptr_;
    std::vector<std::uint32_t> col_;
    std::vector<float> val32_;
    std::vector<double> val64_;
    bool wide_ = false;
  };

  PackedCsr() = default;

  [[nodiscard]] Index rows() const { return rows_; }
  [[nodiscard]] Index cols() const { return cols_; }
  [[nodiscard]] Index nnz() const { return static_cast<Index>(col_.size()); }
  [[nodiscard]] ValueCode code() const { return code_; }

  [[nodiscard]] std::span<const Index> row_ptr() const { return row_ptr_; }

  // Calls fn(PackedRows<float>) or fn(PackedRows<double>) — whichever is
  // the stored code — and returns its result: the one place a row loop is
  // instantiated per code.
  template <typename Fn>
  decltype(auto) visit(Fn&& fn) const {
    if (code_ == ValueCode::kFp32) return fn(arrays<float>(val32_));
    return fn(arrays<double>(val64_));
  }

  // The stored value codes, mutable: the fault-injection layer's handle on
  // a resident operand (exactly one alternative, the stored code).
  using MutableValues = std::variant<std::span<float>, std::span<double>>;
  [[nodiscard]] MutableValues mutable_values();

  // Heap bytes the three arrays pin — the host-memory side of the serving
  // layer's residency accounting (core::RefloatMatrix::resident_bytes adds
  // the block index).
  [[nodiscard]] std::size_t memory_bytes() const {
    return row_ptr_.size() * sizeof(Index) +
           col_.size() * sizeof(std::uint32_t) +
           val32_.size() * sizeof(float) + val64_.size() * sizeof(double);
  }

  // The same operand as an FP64 sparse::Csr (exact widening). For tests and
  // benches that need the 16-byte view; production code sweeps the packed
  // arrays.
  [[nodiscard]] Csr to_csr() const;

 private:
  template <typename V>
  [[nodiscard]] PackedRows<V> arrays(const std::vector<V>& values) const {
    return {row_ptr_.data(), col_.data(), values.data()};
  }

  Index rows_ = 0;
  Index cols_ = 0;
  ValueCode code_ = ValueCode::kFp32;
  std::vector<Index> row_ptr_;  // size rows_ + 1
  std::vector<std::uint32_t> col_;
  std::vector<float> val32_;    // the values when code_ == kFp32
  std::vector<double> val64_;   // the values when code_ == kFp64
};

}  // namespace refloat::sparse

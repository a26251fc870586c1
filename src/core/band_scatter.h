// BandScatter: one 2^b-row band (grid block-row) of a canonical CSR grouped
// by block column. The RefloatMatrix conversion scatters its FP64 input
// with it, and bit-true programming (hw::HwSpmv) scatters each band of the
// packed dequantized operand to densify that band's blocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/sparse/csr.h"
#include "src/sparse/packed_csr.h"

namespace refloat::core {

// scatter() counts the band's entries per block column, lists the touched
// block columns in ascending order (a per-column bitmap scanned between the
// band's extreme words, so no sort), and scatters the entries stably into
// one run per touched column; canonical input makes each run row-major with
// ascending columns. Over the packed operand, a block of the matrix's block
// index has a run exactly when some entry of it survived quantization, and
// the runs come in block-index order. Buffers are reused across bands.
class BandScatter {
 public:
  struct Slot {
    std::size_t offset;  // position in the band's input range
    std::int32_t r, c;   // within-block coordinates
  };

  BandScatter(int b, sparse::Index cols);

  // Groups rows [r0, r1) of `a` (an FP64 CSR's or a packed operand's
  // arrays; values are widened to double); r0 is a multiple of 2^b and
  // r1 - r0 <= 2^b.
  template <typename C, typename V>
  void scatter(sparse::RowArrays<C, V> a, sparse::Index r0, sparse::Index r1);

  // The last band's touched block columns, ascending.
  [[nodiscard]] std::span<const sparse::Index> block_cols() const {
    return touched_;
  }
  // Run i (of block_cols()[i]): its values and slots, row-major.
  [[nodiscard]] std::span<const double> run_values(std::size_t i) const {
    return {values_.data() + run_begin(i), run_end_[i] - run_begin(i)};
  }
  [[nodiscard]] std::span<const Slot> run_slots(std::size_t i) const {
    return {slots_.data() + run_begin(i), run_end_[i] - run_begin(i)};
  }

 private:
  [[nodiscard]] std::size_t run_begin(std::size_t i) const {
    return i == 0 ? 0 : run_end_[i - 1];
  }

  int b_;
  // Per block column: the band's entry count, then its run's scatter
  // cursor, and a touched bit. Only touched columns are ever nonzero, and
  // they are reset before scatter() returns.
  std::vector<std::size_t> cursor_;
  std::vector<std::uint64_t> touched_bits_;
  std::vector<sparse::Index> touched_;
  std::vector<std::size_t> run_end_;  // per touched column
  std::vector<double> values_;
  std::vector<Slot> slots_;
};

}  // namespace refloat::core

#include "src/core/band_scatter.h"

#include <algorithm>
#include <bit>

namespace refloat::core {

BandScatter::BandScatter(int b, sparse::Index cols)
    : b_(b),
      cursor_(static_cast<std::size_t>(
                  (cols + (sparse::Index{1} << b) - 1) >> b),
              0),
      touched_bits_((cursor_.size() + 63) / 64, 0) {}

template <typename C, typename V>
void BandScatter::scatter(sparse::RowArrays<C, V> a, sparse::Index r0,
                          sparse::Index r1) {
  const auto at = [](sparse::Index i) { return static_cast<std::size_t>(i); };
  const sparse::Index* row_ptr = a.row_ptr;
  const C* col_idx = a.col;
  const V* values = a.val;
  const sparse::Index mask = (sparse::Index{1} << b_) - 1;
  const sparse::Index k0 = row_ptr[at(r0)];
  const std::size_t band_nnz = at(row_ptr[at(r1)] - k0);

  // Count, then list the touched block columns in ascending order by
  // scanning the touched bits between the band's extreme columns; each
  // count becomes its run's start cursor.
  std::size_t lo_word = touched_bits_.size();
  std::size_t hi_word = 0;
  for (std::size_t i = 0; i < band_nnz; ++i) {
    const std::size_t bc = at(col_idx[at(k0) + i] >> b_);
    if (cursor_[bc]++ == 0) {
      touched_bits_[bc / 64] |= std::uint64_t{1} << (bc % 64);
      lo_word = std::min(lo_word, bc / 64);
      hi_word = std::max(hi_word, bc / 64);
    }
  }
  touched_.clear();
  run_end_.clear();
  std::size_t run_begin = 0;
  for (std::size_t w = lo_word; w <= hi_word && w < touched_bits_.size();
       ++w) {
    for (std::uint64_t bits = touched_bits_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t bc = w * 64 + std::countr_zero(bits);
      touched_.push_back(static_cast<sparse::Index>(bc));
      const std::size_t n = cursor_[bc];
      cursor_[bc] = run_begin;
      run_begin += n;
      run_end_.push_back(run_begin);
    }
    touched_bits_[w] = 0;
  }
  values_.resize(band_nnz);
  slots_.resize(band_nnz);
  for (sparse::Index r = r0; r < r1; ++r) {
    for (sparse::Index k = row_ptr[at(r)]; k < row_ptr[at(r) + 1]; ++k) {
      const auto c = static_cast<sparse::Index>(col_idx[at(k)]);
      const std::size_t pos = cursor_[at(c >> b_)]++;
      values_[pos] = static_cast<double>(values[at(k)]);
      slots_[pos] = {at(k - k0), static_cast<std::int32_t>(r & mask),
                     static_cast<std::int32_t>(c & mask)};
    }
  }
  for (const sparse::Index bc : touched_) cursor_[at(bc)] = 0;
}

// The conversion scatters its FP64 input, bit-true programming the packed
// operand in either code.
template void BandScatter::scatter(sparse::RowArrays<sparse::Index, double>,
                                   sparse::Index, sparse::Index);
template void BandScatter::scatter(sparse::PackedRows<float>, sparse::Index,
                                   sparse::Index);
template void BandScatter::scatter(sparse::PackedRows<double>, sparse::Index,
                                   sparse::Index);

}  // namespace refloat::core

#include "src/core/spmv_plan.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "src/core/refloat_matrix.h"

namespace refloat::core {

std::size_t SpmvPlan::payload_bytes() const {
  return block_ptr.size() * sizeof(std::size_t) +
         row0.size() * sizeof(sparse::Index) +
         col0.size() * sizeof(sparse::Index) + base.size() * sizeof(int) +
         entry_ptr.size() * sizeof(std::size_t) +
         entry_row.size() * sizeof(std::int16_t) +
         entry_col.size() * sizeof(std::int16_t) +
         entry_value.size() * sizeof(double);
}

bool SpmvPlan::valid() const {
  const std::size_t n_blocks = num_blocks();
  if (col0.size() != n_blocks || base.size() != n_blocks) return false;
  if (entry_ptr.size() != n_blocks + 1) return false;
  if (entry_row.size() != num_entries() || entry_col.size() != num_entries()) {
    return false;
  }
  if (!entry_ptr.empty() &&
      (entry_ptr.front() != 0 || entry_ptr.back() != num_entries())) {
    return false;
  }
  const auto block_side = static_cast<sparse::Index>(side());
  const std::size_t n_brows = block_rows();
  if (b > 0 &&
      n_brows != static_cast<std::size_t>((rows + block_side - 1) /
                                          block_side)) {
    return false;
  }
  if (!block_ptr.empty() &&
      (block_ptr.front() != 0 || block_ptr.back() != n_blocks)) {
    return false;
  }
  for (std::size_t br = 0; br < n_brows; ++br) {
    if (block_ptr[br] > block_ptr[br + 1]) return false;
    if (block_ptr[br + 1] > n_blocks) return false;
    // entry_ptr / block_ptr cross-consistency: a block-row's entry span is
    // addressable through its block span (a partitioner handing out block
    // ranges that disagree with the entry arena must fail here, loudly).
    if (entry_ptr[block_ptr[br]] > entry_ptr[block_ptr[br + 1]]) return false;
    if (entry_ptr[block_ptr[br + 1]] > num_entries()) return false;
    for (std::size_t j = block_ptr[br]; j < block_ptr[br + 1]; ++j) {
      if (row0[j] != static_cast<sparse::Index>(br) * block_side) {
        return false;
      }
      if (j > block_ptr[br] && col0[j] <= col0[j - 1]) return false;
      if (col0[j] < 0 || col0[j] >= cols) return false;
      if (col0[j] % block_side != 0) return false;
      if (row0[j] < 0 || row0[j] >= rows) return false;
    }
  }
  for (std::size_t j = 0; j < n_blocks; ++j) {
    if (entry_ptr[j] > entry_ptr[j + 1]) return false;
    for (std::size_t e = entry_ptr[j]; e < entry_ptr[j + 1]; ++e) {
      if (entry_row[e] < 0 || entry_row[e] >= block_side) return false;
      if (entry_col[e] < 0 || entry_col[e] >= block_side) return false;
    }
  }
  // Within a block-row every row's entries ascend in global column: the
  // blocked sweep's per-row addend order is CSR order, which is what lets
  // the value sweeps walk the packed operand instead of the plan.
  std::vector<sparse::Index> last_col;  // per in-block row
  for (std::size_t br = 0; br < n_brows; ++br) {
    last_col.assign(side(), -1);
    for (std::size_t j = block_ptr[br]; j < block_ptr[br + 1]; ++j) {
      for (std::size_t e = entry_ptr[j]; e < entry_ptr[j + 1]; ++e) {
        const auto row = static_cast<std::size_t>(entry_row[e]);
        const sparse::Index col = col0[j] + entry_col[e];
        if (col <= last_col[row]) return false;
        last_col[row] = col;
      }
    }
  }
  return true;
}

SpmvPlan SpmvPlan::build(const RefloatMatrix& rf) {
  const int b = rf.format().b;
  if (b == 0) return {};
  const sparse::PackedCsr& q = rf.quantized();
  const RefloatMatrix::BlockIndex& index = rf.block_index();
  const sparse::Index side = sparse::Index{1} << b;
  SpmvPlanBuilder builder;
  builder.reserve_entries(static_cast<std::size_t>(q.nnz()));
  BandScatter band(b, q.cols());
  for (std::size_t br = 0; br < index.block_rows(); ++br) {
    const auto r0 = static_cast<sparse::Index>(br) << b;
    const sparse::Index r1 = std::min(r0 + side, q.rows());
    q.visit([&](auto rows) { band.scatter(rows, r0, r1); });
    // The band's touched block columns are a subset of the index's blocks
    // for this block-row (both ascending): a block whose entries all
    // flushed to zero has no CSR entries and stays an empty block.
    const std::span<const sparse::Index> touched = band.block_cols();
    std::size_t run = 0;
    for (std::size_t j = index.block_ptr[br]; j < index.block_ptr[br + 1];
         ++j) {
      const sparse::Index bc = index.block_col[j];
      builder.begin_block(r0, bc << b, index.base[j]);
      if (run == touched.size() || touched[run] != bc) continue;
      const std::span<const double> values = band.run_values(run);
      const std::span<const BandScatter::Slot> slots = band.run_slots(run);
      for (std::size_t p = 0; p < values.size(); ++p) {
        builder.push_entry(slots[p].r, slots[p].c, values[p]);
      }
      ++run;
    }
    assert(run == touched.size());  // every entry lies in an indexed block
  }
  return builder.finish(q.rows(), q.cols(), b);
}

void SpmvPlanBuilder::reserve_entries(std::size_t entries) {
  plan_.entry_row.reserve(entries);
  plan_.entry_col.reserve(entries);
  plan_.entry_value.reserve(entries);
}

void SpmvPlanBuilder::begin_block(sparse::Index row0, sparse::Index col0,
                                  int base) {
  plan_.entry_ptr.push_back(plan_.entry_value.size());
  plan_.row0.push_back(row0);
  plan_.col0.push_back(col0);
  plan_.base.push_back(base);
}

void SpmvPlanBuilder::push_entry(std::int32_t r, std::int32_t c,
                                 double value) {
  plan_.entry_row.push_back(static_cast<std::int16_t>(r));
  plan_.entry_col.push_back(static_cast<std::int16_t>(c));
  plan_.entry_value.push_back(value);
}

SpmvPlan SpmvPlanBuilder::finish(sparse::Index rows, sparse::Index cols,
                                 int b) {
  plan_.rows = rows;
  plan_.cols = cols;
  plan_.b = b;
  plan_.entry_ptr.push_back(plan_.entry_value.size());

  // Full-grid block-row index: every grid block-row gets a range, empty
  // block-rows an empty one.
  const sparse::Index side = sparse::Index{1} << b;
  const std::size_t n_brows =
      b > 0 ? static_cast<std::size_t>((rows + side - 1) / side) : 0;
  plan_.block_ptr.assign(n_brows + 1, 0);
  for (const sparse::Index r0 : plan_.row0) {
    ++plan_.block_ptr[static_cast<std::size_t>(r0 / side) + 1];
  }
  for (std::size_t i = 1; i < plan_.block_ptr.size(); ++i) {
    plan_.block_ptr[i] += plan_.block_ptr[i - 1];
  }
  // A conversion that visited blocks out of order or mis-sized the arena
  // must fail at build time, not as a silently wrong SpMV later.
  assert(plan_.valid());
  return std::move(plan_);
}

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

// The conversion scatters its FP64 input, SpmvPlan::build the packed
// operand in either code.
template void BandScatter::scatter(sparse::RowArrays<sparse::Index, double>,
                                   sparse::Index, sparse::Index);
template void BandScatter::scatter(sparse::PackedRows<float>, sparse::Index,
                                   sparse::Index);
template void BandScatter::scatter(sparse::PackedRows<double>, sparse::Index,
                                   sparse::Index);

}  // namespace refloat::core

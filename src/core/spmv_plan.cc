#include "src/core/spmv_plan.h"

#include <cassert>
#include <utility>

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
  // the value sweeps walk the dequantized CSR instead of the plan.
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

}  // namespace refloat::core

// SpmvPlan: the contiguous block payload behind every ReFloat SpMV path.
//
// The plan is a block-row-CSR-of-blocks index over the full block grid plus
// one structure-of-arrays arena: packed int16 within-block coordinates,
// dequantized values, and per-block origins / base exponents / entry
// offsets. It is built once per (matrix, policy) by the RefloatMatrix
// conversion and then shared read-only by the noisy SweepBackend (k = 1
// and batched), tiling, and the bit-true `hw::HwSpmv` programming pass —
// one flat image instead of a
// vector-of-vectors heap per block (no pointer chasing, one allocation per
// array, ~12 payload bytes per nonzero instead of 16-plus-heap-headers).
//
// Ordering contract: blocks are stored in ascending (block-row, block-col)
// order and a block's entries row-major with ascending columns, so within a
// block-row every row's entries ascend in global column — CSR order. Every
// consumer walks the arena in this serial order inside its block-row shard,
// which is what keeps the threaded paths bit-identical to the serial ones
// at any thread count, and what lets the value sweeps read the dequantized
// CSR instead of the arena with the same per-row addend order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sparse/csr.h"

namespace refloat::core {

struct SpmvPlan {
  int b = 0;                 // log2 block side (side() == 2^b)
  sparse::Index rows = 0;    // matrix dimensions the plan covers
  sparse::Index cols = 0;

  // Block-row CSR index: blocks [block_ptr[i], block_ptr[i+1]) form grid
  // block-row i. Unlike the historical run-length index this covers *every*
  // grid block-row, so an all-zero band of 2^b rows appears as an empty
  // range (and a no-op shard), not a missing one. Size = block_rows() + 1.
  std::vector<std::size_t> block_ptr;

  // Per-block SoA (parallel arrays, one slot per nonzero block):
  std::vector<sparse::Index> row0;       // global row of the block's first row
  std::vector<sparse::Index> col0;       // global col of the block's first col
  std::vector<int> base;                 // shared base exponent
  // Entries [entry_ptr[j], entry_ptr[j+1]) of the arena belong to block j.
  // Size = num_blocks() + 1.
  std::vector<std::size_t> entry_ptr;

  // Entry arena SoA: within-block coordinates (int16 — any b <= 15 fits;
  // the hardware caps b at 7) and dequantized values.
  std::vector<std::int16_t> entry_row;
  std::vector<std::int16_t> entry_col;
  std::vector<double> entry_value;

  [[nodiscard]] std::size_t num_blocks() const { return row0.size(); }
  [[nodiscard]] std::size_t num_entries() const { return entry_value.size(); }
  [[nodiscard]] std::size_t block_rows() const {
    return block_ptr.empty() ? 0 : block_ptr.size() - 1;
  }
  [[nodiscard]] std::size_t side() const { return std::size_t{1} << b; }

  // Bytes the SoA arrays pin in memory (the bench's bytes-per-nnz column).
  [[nodiscard]] std::size_t payload_bytes() const;

  // Internal-consistency check: monotone offsets, in-range aligned block
  // origins, in-range coordinates, blocks inside their block-row,
  // entry_ptr/block_ptr cross-consistency (every block-row's entry span is
  // addressable through its block span), and ascending global columns per
  // row within each block-row. Cheap; debug-asserted at the end of
  // SpmvPlanBuilder::finish and exercised directly by tests.
  [[nodiscard]] bool valid() const;
};

// Incremental builder used by the RefloatMatrix conversion: call
// begin_block once per nonzero block in (block-row, block-col) order, then
// push_entry for each surviving quantized entry, then finish(rows, cols, b).
class SpmvPlanBuilder {
 public:
  // Reserves the entry arena for up to `entries` pushes (the conversion
  // passes the input's nnz, an upper bound on the surviving entries).
  void reserve_entries(std::size_t entries);
  void begin_block(sparse::Index row0, sparse::Index col0, int base);
  void push_entry(std::int32_t r, std::int32_t c, double value);
  // Seals entry/block offsets and derives the full-grid block_ptr index.
  [[nodiscard]] SpmvPlan finish(sparse::Index rows, sparse::Index cols,
                                int b);

 private:
  SpmvPlan plan_;
};

}  // namespace refloat::core

// SpmvPlan: the contiguous block payload the block-walking consumers sweep.
//
// The plan is a block-row-CSR-of-blocks index over the full block grid plus
// one structure-of-arrays arena: packed int16 within-block coordinates,
// dequantized values, and per-block origins / base exponents / entry
// offsets. It is not part of a resident RefloatMatrix: SpmvPlan::build(rf)
// derives it from the matrix's packed operand and block index, and only
// the consumers that walk blocks build one — the bit-true `hw::HwSpmv`
// programs its crossbars from a plan it then frees, and the
// storage/schedule models read one. (The noisy SweepBackend reproduces the
// plan's per-block partials and draw order from the packed operand and the
// block index, and builds none.) One flat image instead
// of a vector-of-vectors heap per block (no pointer chasing, one
// allocation per array, ~12 payload bytes per nonzero).
//
// Ordering contract: blocks are stored in ascending (block-row, block-col)
// order and a block's entries row-major with ascending columns, so within a
// block-row every row's entries ascend in global column — CSR order. Every
// consumer walks the arena in this serial order inside its block-row shard,
// which is what keeps the threaded paths bit-identical to the serial ones
// at any thread count, and what lets the value sweeps read the dequantized
// CSR instead of a plan with the same per-row addend order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/sparse/csr.h"
#include "src/sparse/packed_csr.h"

namespace refloat::core {

class RefloatMatrix;

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

  // The plan of `rf`: walks each 2^b-row band of rf.quantized(), groups it
  // by block column (BandScatter) and emits every block of rf's block index
  // in order, with the index's base exponent. Plan entries are exactly the
  // CSR entries (the conversion drops quantized zeros from both), and
  // blocks whose entries all flushed to zero stay as empty blocks, so the
  // result equals the plan the conversion used to keep, field for field.
  // Empty when rf.format().b == 0 (scalar formats have no blocks).
  [[nodiscard]] static SpmvPlan build(const RefloatMatrix& rf);

  // Internal-consistency check: monotone offsets, in-range aligned block
  // origins, in-range coordinates, blocks inside their block-row,
  // entry_ptr/block_ptr cross-consistency (every block-row's entry span is
  // addressable through its block span), and ascending global columns per
  // row within each block-row. Cheap; debug-asserted at the end of
  // SpmvPlanBuilder::finish and exercised directly by tests.
  [[nodiscard]] bool valid() const;
};

// Incremental builder behind SpmvPlan::build: call
// begin_block once per nonzero block in (block-row, block-col) order, then
// push_entry for each surviving quantized entry, then finish(rows, cols, b).
class SpmvPlanBuilder {
 public:
  // Reserves the entry arena for `entries` pushes.
  void reserve_entries(std::size_t entries);
  void begin_block(sparse::Index row0, sparse::Index col0, int base);
  void push_entry(std::int32_t r, std::int32_t c, double value);
  // Seals entry/block offsets and derives the full-grid block_ptr index.
  [[nodiscard]] SpmvPlan finish(sparse::Index rows, sparse::Index cols,
                                int b);

 private:
  SpmvPlan plan_;
};

// One 2^b-row band (grid block-row) of a canonical CSR grouped by block
// column — the scatter the RefloatMatrix conversion (over the input) and
// SpmvPlan::build (over the packed dequantized operand) share. scatter()
// counts the band's entries per block column, lists the touched block
// columns in ascending order (a per-column bitmap scanned between the
// band's extreme words, so no sort), and scatters the entries stably into
// one run per touched column; canonical input makes each run row-major with
// ascending columns, the plan's entry order. Buffers are reused across
// bands.
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

// Runtime-dispatched SIMD kernels for the value-faithful sweeps, the vector
// quantization fast path (one span, or one tile of k interleaved columns)
// and the ABFT epilogue reduction (one column, or every column of an
// interleaved batch).
//
// The value sweeps walk the packed dequantized operand
// (RefloatMatrix::quantized(), a sparse::PackedCsr) row by row, decoding
// each stored fp32 or fp64 value to double exactly: the value-faithful
// result depends only on the dequantized
// block values and the digital accumulation after the ADC, and the 128x128
// block grid is how the hardware maps the matrix, not part of that
// arithmetic. A blocked sweep visits each block-row's blocks in ascending
// column order and each block row-major, so every output row receives its
// addends in ascending column order — CSR order — and
// a row kernel with the running sum in a register reproduces it bit for
// bit. Each row loop is one template instantiated per value code. Three
// implementations of the same kernel table exist side by side:
//
//   scalar   portable reference, compiled with -ffp-contract=off so its
//            mul-then-add order is the pinned semantics everywhere
//            (including -march=native builds, where GCC would otherwise
//            contract into FMA and change the rounding);
//   avx2     x86-64, 256-bit lanes (4 doubles), compiled per-TU with
//            -mavx2 and executed only when cpuid reports AVX2;
//   neon     aarch64, 128-bit lanes (2 doubles).
//
// Every implementation is BIT-IDENTICAL to the scalar reference: vector
// lanes perform the same IEEE multiply and add per element in the same
// per-output order, no FMA contraction anywhere (tests/test_simd.cc pins
// this at 1/2/8 threads, and the tile quantizer and lane reduction against
// per-column quantize_vector and abft_reduce; tests/test_block_layout.cc
// pins the row sweeps against the blocked loop they replaced). The k-column
// entries hold a group of columns in the lanes of one register — four per
// __m256d, two per float64x2_t — so per column they run the single-column
// arithmetic unchanged. Dispatch is by cpuid at
// first use, overridable with REFLOAT_SIMD=avx2|neon|scalar (an
// unsupported request logs a warning and clamps to the best supported
// ISA).
#pragma once

#include <cstddef>

namespace refloat::sparse {
class PackedCsr;
}  // namespace refloat::sparse

namespace refloat::core {

struct QuantPolicy;

enum class SimdIsa {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

// Short lowercase name ("scalar", "avx2", "neon") — used by REFLOAT_SIMD
// parsing and by benches describing which path they measured.
const char* simd_isa_name(SimdIsa isa);

// True when this build can execute `isa` on this machine (compile-time
// target support AND runtime cpuid).
bool simd_isa_supported(SimdIsa isa);

// The widest supported ISA (what dispatch picks absent an override).
SimdIsa simd_best_supported();

// The ISA the kernel table currently dispatches to. Resolved once on first
// use: REFLOAT_SIMD if set (clamped to supported, with a warning), else
// simd_best_supported().
SimdIsa simd_active_isa();

// Forces the active ISA (tests and benches sweeping implementations).
// Unsupported requests clamp to simd_best_supported(). Returns the ISA
// actually installed. Not safe to call concurrently with in-flight SpMVs.
SimdIsa simd_set_isa(SimdIsa isa);

// Precomputed window for the quantize-span fast kernel: everything
// quantize_span derives once per segment so the per-element loop is pure
// arithmetic. `policy` backs the exact per-lane fallback (denormals,
// inf/nan, overflow, non-gradual underflow).
struct QuantSpanArgs {
  int base = 0;
  int e_bits = 0;
  int f_bits = 0;
  int lo = 0;          // window floor exponent
  int hi = 0;          // window ceiling exponent
  bool gradual = false;  // UnderflowMode::kDenormalize
  double ceiling = 0.0;  // ldexp(2.0, hi)
  const QuantPolicy* policy = nullptr;
};

// Per-call arguments of the tile quantizer: the vector format's widths and
// the policy (its base mode must be BaseMode::kMaxAnchor). Each column's
// window follows from that column's own block base.
struct QuantTileArgs {
  int e_bits = 0;
  int f_bits = 0;
  const QuantPolicy* policy = nullptr;
};

// One ISA's kernel set. Rows own their outputs, so any split of the row
// range across threads or tiles is a pure scheduling change. Every k-column
// operand is row-major interleaved: slot i*k + j holds element i of column
// j, the one batch layout from the lockstep solvers down to these kernels.
struct SweepKernels {
  // y[r] = sum_e a[r, col(e)] * x[col(e)] for every row r in
  // [r_begin, r_end): the running sum starts at +0.0 and takes one multiply
  // then one add per entry in CSR (ascending column) order, the entry's
  // stored code widened to double first. Every row of the range is
  // written; an empty row reads +0.0.
  void (*spmv_rows)(const sparse::PackedCsr& a, std::size_t r_begin,
                    std::size_t r_end, const double* x, double* y);
  // The k-RHS counterpart over row-major interleaved operands (slot
  // i*k + column): column j of y is exactly spmv_rows on column j of x.
  // k in {2,4,8,16} runs a fixed-width kernel holding the k running sums in
  // registers, anything else the generic loop.
  void (*spmm_rows)(const sparse::PackedCsr& a, std::size_t r_begin,
                    std::size_t r_end, std::size_t k, const double* x,
                    double* y);
  // The in-window fast path of core::quantize_span (exponent-field grids +
  // 2^52 magic rounding); out-of-path lanes fall back to quantize_value.
  void (*quantize_span_fast)(const double* x, std::size_t n,
                             const QuantSpanArgs& args, double* out);
  // ABFT epilogue reduction for one checked column:
  //   out[0] = sum_i w[i]*x[i]       out[1] = sum_i |w[i]*x[i]|
  //   out[2] = sum_r y[r]            out[3] = sum_r |y[r]|
  // Unlike the sweeps (whose per-output accumulation order is serial), a
  // reduction cannot be vectorized without reassociating, so the pinned
  // semantics here is an eight-lane split: logical lane l accumulates
  // elements congruent to l mod 8, the tail folds serially into lane 0,
  // and the lanes combine in the fixed order detail::abft_lane_combine
  // defines. Every ISA implements exactly that, so the reduction stays
  // bit-identical across scalar/avx2/neon and any thread/tile count.
  void (*abft_reduce)(const double* w, const double* x, std::size_t nx,
                      const double* y, std::size_t ny, double* out);
  // One vector segment (2^b rows) of k interleaved columns: out column j is
  // exactly select_block_base + quantize_span on x column j (what
  // RefloatMatrix::quantize_vector does per segment). The vector ISAs scan
  // the block maxima of a group of columns in lanes — the largest finite
  // magnitude's exponent field is the max-anchor base — then round with
  // per-lane window bounds; columns past the last whole group, and k = 1,
  // run the contiguous span path column by column. out must not overlap x.
  void (*quantize_tile)(const double* x, std::size_t rows, std::size_t k,
                        const QuantTileArgs& args, double* out);
  // abft_reduce of every column of interleaved x (nx rows) and y (ny rows):
  // out[4j .. 4j+3] is exactly abft_reduce on column j extracted — the same
  // eight-lane split per column, the vector ISAs holding a group of
  // columns' lane-l accumulators in one register.
  void (*abft_reduce_lanes)(const double* w, const double* x, std::size_t nx,
                            const double* y, std::size_t ny, std::size_t k,
                            double* out);
};

// Kernel table for the active ISA (one relaxed atomic load).
const SweepKernels& sweep_kernels();

// Kernel table for a specific supported ISA (nullptr members never occur;
// unsupported ISAs return the scalar table).
const SweepKernels& sweep_kernels_for(SimdIsa isa);

}  // namespace refloat::core

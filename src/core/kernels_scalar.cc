// Scalar reference implementations of the sweep kernel table. This TU is
// compiled with -ffp-contract=off (see CMakeLists): its mul-then-add
// rounding IS the pinned semantics every vector ISA must reproduce
// bit-for-bit, so the compiler may never contract a*b+c into an FMA here —
// not even under -march=native Release builds.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/format.h"
#include "src/core/kernels_internal.h"
#include "src/core/simd.h"
#include "src/sparse/packed_csr.h"

namespace refloat::core {

namespace {

// Row-range value sweep over the packed dequantized operand. Each row's
// running sum lives in a register, starts at +0.0 and takes its addends in
// CSR order (ascending column), one multiply then one add each, the stored
// value widened to double first (exact for either code). Raw __restrict__
// pointers encode the caller contract the spans cannot: the output never
// aliases the matrix or the quantized input.
template <typename V>
void spmv_rows_packed(sparse::PackedRows<V> a, std::size_t r_begin,
                      std::size_t r_end, const double* __restrict__ x,
                      double* __restrict__ y) {
  const sparse::Index* __restrict__ row_ptr = a.row_ptr;
  const std::uint32_t* __restrict__ col = a.col;
  const V* __restrict__ val = a.val;
  for (std::size_t r = r_begin; r < r_end; ++r) {
    double sum = 0.0;
    const auto end = static_cast<std::size_t>(row_ptr[r + 1]);
    for (auto e = static_cast<std::size_t>(row_ptr[r]); e < end; ++e) {
      sum += static_cast<double>(val[e]) * x[col[e]];
    }
    y[r] = sum;
  }
}

// Batched row sweep with a compile-time batch width: the fixed K lets the
// compiler keep the K running sums in registers and fully unroll the
// per-entry column loop. Operands are row-major interleaved (slot
// i*K + column).
template <std::size_t K, typename V>
void spmm_rows_fixed(sparse::PackedRows<V> a, std::size_t r_begin,
                     std::size_t r_end, const double* __restrict__ x,
                     double* __restrict__ y) {
  const sparse::Index* __restrict__ row_ptr = a.row_ptr;
  const std::uint32_t* __restrict__ col = a.col;
  const V* __restrict__ val = a.val;
  for (std::size_t r = r_begin; r < r_end; ++r) {
    double acc[K] = {};
    const auto end = static_cast<std::size_t>(row_ptr[r + 1]);
    for (auto e = static_cast<std::size_t>(row_ptr[r]); e < end; ++e) {
      const auto v = static_cast<double>(val[e]);
      const double* __restrict__ xs = x + std::size_t{col[e]} * K;
      for (std::size_t c = 0; c < K; ++c) acc[c] += v * xs[c];
    }
    for (std::size_t c = 0; c < K; ++c) y[r * K + c] = acc[c];
  }
}

template <typename V>
void spmm_rows_packed(sparse::PackedRows<V> a, std::size_t r_begin,
                      std::size_t r_end, std::size_t k,
                      const double* __restrict__ x, double* __restrict__ y) {
  switch (k) {
    case 2: return spmm_rows_fixed<2>(a, r_begin, r_end, x, y);
    case 4: return spmm_rows_fixed<4>(a, r_begin, r_end, x, y);
    case 8: return spmm_rows_fixed<8>(a, r_begin, r_end, x, y);
    case 16: return spmm_rows_fixed<16>(a, r_begin, r_end, x, y);
    default: break;
  }
  const sparse::Index* __restrict__ row_ptr = a.row_ptr;
  const std::uint32_t* __restrict__ col = a.col;
  const V* __restrict__ val = a.val;
  for (std::size_t r = r_begin; r < r_end; ++r) {
    double* __restrict__ ys = y + r * k;
    std::fill(ys, ys + k, 0.0);
    const auto end = static_cast<std::size_t>(row_ptr[r + 1]);
    for (auto e = static_cast<std::size_t>(row_ptr[r]); e < end; ++e) {
      const auto v = static_cast<double>(val[e]);
      const double* __restrict__ xs = x + std::size_t{col[e]} * k;
      for (std::size_t c = 0; c < k; ++c) ys[c] += v * xs[c];
    }
  }
}

void spmm_rows_scalar(const sparse::PackedCsr& a, std::size_t r_begin,
                      std::size_t r_end, std::size_t k, const double* x,
                      double* y) {
  a.visit([&](auto rows) { spmm_rows_packed(rows, r_begin, r_end, k, x, y); });
}

}  // namespace

// Non-static: the vector TUs use it as their single-RHS sweep.
void spmv_rows_scalar(const sparse::PackedCsr& a, std::size_t r_begin,
                      std::size_t r_end, const double* x, double* y) {
  a.visit([&](auto rows) { spmv_rows_packed(rows, r_begin, r_end, x, y); });
}

// The in-window quantization fast path (see quantize_span in format.cc for
// the guard that gets here): normal values round on their own binade's
// f-bit grid, gradual underflow on the window floor's grid, everything
// rare (zeros, denormals, inf/nan, overflow, non-gradual underflow)
// delegates to the exact quantize_value semantics. Non-static: the vector
// TUs reuse this for their remainder tails.
void quantize_span_fast_scalar(const double* x, std::size_t n,
                               const QuantSpanArgs& args, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double v = x[i];
    if (v == 0.0) {  // preserves signed zero, like quantize_value
      out[i] = v;
      continue;
    }
    const int field = detail::exponent_field(v);
    const int exponent = field - 1023;
    if (field == 0 || field == 0x7ff || exponent > args.hi ||
        (exponent < args.lo && !args.gradual)) {
      out[i] = quantize_value(v, args.base, args.e_bits, args.f_bits,
                              *args.policy, nullptr);
      continue;
    }
    // In-window values round on their own binade's f-bit grid; gradual
    // underflow rounds on the window floor's grid — one shared expression.
    const int grid = exponent < args.lo ? args.lo : exponent;
    double q = detail::round_even_small(v * detail::pow2(args.f_bits - grid)) *
               detail::pow2(grid - args.f_bits);
    // The magic-constant rounding returns +0.0 where nearbyint returns
    // -0.0; restore the signed zero quantize_value produces.
    if (q == 0.0) q = std::copysign(0.0, v);
    if (std::abs(q) >= args.ceiling) {
      // Mantissa carried past the window ceiling: saturate via the scalar
      // path so the result stays bit-identical to quantize_value.
      out[i] = quantize_value(v, args.base, args.e_bits, args.f_bits,
                              *args.policy, nullptr);
      continue;
    }
    out[i] = q;
  }
}

namespace {

// The ABFT reduction's pinned semantics: eight independent accumulator
// lanes (element index mod 8), serial tail into lane 0, then the fixed
// detail::abft_lane_combine pairing. The vector ISAs hold the same lanes
// in registers and perform the same IEEE ops per element, so their sums
// are bit-identical to this loop. Column c of interleaved operands (stride
// k); k = 1 is the plain single-column reduction.
void abft_reduce_column(const double* __restrict__ w,
                        const double* __restrict__ x, std::size_t nx,
                        const double* __restrict__ y, std::size_t ny,
                        std::size_t k, std::size_t c, double* out) {
  double chk[8] = {}, chk_abs[8] = {};
  std::size_t i = 0;
  for (; i + 8 <= nx; i += 8) {
    for (std::size_t l = 0; l < 8; ++l) {
      const double t = w[i + l] * x[(i + l) * k + c];
      chk[l] += t;
      chk_abs[l] += std::abs(t);
    }
  }
  for (; i < nx; ++i) {
    const double t = w[i] * x[i * k + c];
    chk[0] += t;
    chk_abs[0] += std::abs(t);
  }
  double sum[8] = {}, sum_abs[8] = {};
  std::size_t r = 0;
  for (; r + 8 <= ny; r += 8) {
    for (std::size_t l = 0; l < 8; ++l) {
      const double v = y[(r + l) * k + c];
      sum[l] += v;
      sum_abs[l] += std::abs(v);
    }
  }
  for (; r < ny; ++r) {
    const double v = y[r * k + c];
    sum[0] += v;
    sum_abs[0] += std::abs(v);
  }
  out[0] = detail::abft_lane_combine(chk);
  out[1] = detail::abft_lane_combine(chk_abs);
  out[2] = detail::abft_lane_combine(sum);
  out[3] = detail::abft_lane_combine(sum_abs);
}

}  // namespace

int tile_column_base(double max_abs, const double* x, std::size_t rows,
                     std::size_t k, const QuantTileArgs& args) {
  // The largest finite magnitude carries the largest finite exponent field,
  // which is select_block_base's max anchor whenever it is a normal number.
  const int field = detail::exponent_field(max_abs);
  if (field > 0) return field - 1023;
  thread_local std::vector<double> column;
  column.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) column[r] = x[r * k];
  return select_block_base(column, args.e_bits, *args.policy);
}

void quantize_tile_by_column(const double* x, std::size_t rows,
                             std::size_t k, std::size_t c_begin,
                             const QuantTileArgs& args,
                             QuantSegmentFn segment, double* out) {
  if (c_begin >= k) return;
  if (k == 1) {
    segment(x, rows, args, out);
    return;
  }
  thread_local std::vector<double> in;
  thread_local std::vector<double> q;
  in.resize(rows);
  q.resize(rows);
  for (std::size_t c = c_begin; c < k; ++c) {
    for (std::size_t r = 0; r < rows; ++r) in[r] = x[r * k + c];
    segment(in.data(), rows, args, q.data());
    for (std::size_t r = 0; r < rows; ++r) out[r * k + c] = q[r];
  }
}

namespace {

void abft_reduce_scalar(const double* w, const double* x, std::size_t nx,
                        const double* y, std::size_t ny, double* out) {
  abft_reduce_column(w, x, nx, y, ny, 1, 0, out);
}

void abft_reduce_lanes_scalar(const double* w, const double* x,
                              std::size_t nx, const double* y, std::size_t ny,
                              std::size_t k, double* out) {
  for (std::size_t c = 0; c < k; ++c) {
    abft_reduce_column(w, x, nx, y, ny, k, c, out + 4 * c);
  }
}

// The reference segment: select_block_base's own scan, then the scalar
// span loop — RefloatMatrix::quantize_vector's per-segment path verbatim.
void quantize_segment_scalar(const double* x, std::size_t n,
                             const QuantTileArgs& args, double* out) {
  const int base =
      select_block_base({x, n}, args.e_bits, *args.policy);
  quantize_segment(x, n, base, args, &quantize_span_fast_scalar, out);
}

void quantize_tile_scalar(const double* x, std::size_t rows, std::size_t k,
                          const QuantTileArgs& args, double* out) {
  quantize_tile_by_column(x, rows, k, 0, args, &quantize_segment_scalar, out);
}

}  // namespace

const SweepKernels* scalar_sweep_kernels() {
  static const SweepKernels kTable = {
      &spmv_rows_scalar,
      &spmm_rows_scalar,
      &quantize_span_fast_scalar,
      &abft_reduce_scalar,
      &quantize_tile_scalar,
      &abft_reduce_lanes_scalar,
  };
  return &kTable;
}

}  // namespace refloat::core

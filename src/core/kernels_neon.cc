// NEON (aarch64) implementations of the sweep kernel table, compiled only
// on aarch64 targets (AdvSIMD is baseline there — no extra flags needed).
//
// Same bit-identity discipline as kernels_avx2.cc: vmulq_f64/vaddq_f64
// pairs, never vfmaq_f64, per-output-slot operation order identical to the
// scalar reference, tails via the scalar loops. The single-RHS sweep stays
// scalar: NEON has no gather, and each row's running sum is a serial
// dependency the bit-identity contract imposes — the wins here are the
// K-wide interleaved batch sweep (K running sums in K/2 128-bit lanes) and
// the quantize fast path.
#include "src/core/simd.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "src/core/format.h"
#include "src/core/kernels_internal.h"
#include "src/sparse/packed_csr.h"

namespace refloat::core {

namespace {

// K-wide interleaved row sweep: K/2 float64x2_t running sums, the stored
// value widened to double (exact for either code) and broadcast.
template <std::size_t K, typename V>
void spmm_rows_neon_fixed(sparse::PackedRows<V> a, std::size_t r_begin,
                          std::size_t r_end, const double* __restrict__ x,
                          double* __restrict__ y) {
  static_assert(K % 2 == 0);
  constexpr std::size_t kVecs = K / 2;
  const sparse::Index* __restrict__ row_ptr = a.row_ptr;
  const std::uint32_t* __restrict__ col = a.col;
  const V* __restrict__ val = a.val;
  for (std::size_t r = r_begin; r < r_end; ++r) {
    float64x2_t acc[kVecs];
    for (std::size_t i = 0; i < kVecs; ++i) acc[i] = vdupq_n_f64(0.0);
    const auto end = static_cast<std::size_t>(row_ptr[r + 1]);
    for (auto e = static_cast<std::size_t>(row_ptr[r]); e < end; ++e) {
      const float64x2_t v = vdupq_n_f64(static_cast<double>(val[e]));
      const double* __restrict__ xs = x + std::size_t{col[e]} * K;
      for (std::size_t i = 0; i < kVecs; ++i) {
        acc[i] = vaddq_f64(acc[i], vmulq_f64(v, vld1q_f64(xs + 2 * i)));
      }
    }
    for (std::size_t i = 0; i < kVecs; ++i) {
      vst1q_f64(y + r * K + 2 * i, acc[i]);
    }
  }
}

void spmm_rows_neon(const sparse::PackedCsr& a, std::size_t r_begin,
                    std::size_t r_end, std::size_t k, const double* x,
                    double* y) {
  a.visit([&](auto rows) {
    switch (k) {
      case 2: return spmm_rows_neon_fixed<2>(rows, r_begin, r_end, x, y);
      case 4: return spmm_rows_neon_fixed<4>(rows, r_begin, r_end, x, y);
      case 8: return spmm_rows_neon_fixed<8>(rows, r_begin, r_end, x, y);
      case 16: return spmm_rows_neon_fixed<16>(rows, r_begin, r_end, x, y);
      default:
        return scalar_sweep_kernels()->spmm_rows(a, r_begin, r_end, k, x, y);
    }
  });
}

// The window of the two-lane rounding, every bound a per-lane vector: a
// contiguous span broadcasts one block's bounds, a tile pair holds one
// column's per lane.
struct LaneWindow2 {
  int64x2_t field_lo;    // biased exponent field of the window floor
  int64x2_t field_hi;    // ... and of the window top
  uint64x2_t exact;      // all-ones where the lane's column fails the guard
  float64x2_t ceiling;   // a rounded |q| at or above it saturates
  int64x2_t s1_bias;     // 2046 + f
  int64x2_t s2_bias;     // f
  bool gradual;          // UnderflowMode::kDenormalize
};

// Two-lane quantize_span fast path over one register; mirrors
// round_lanes_avx2 (see kernels_avx2.cc for the derivation of the scale
// exponents and the sign-folded magic rounding). Returns the rounded
// lanes; *patch gets the all-ones lanes the caller recomputes with
// quantize_value.
inline float64x2_t round_lanes_neon(float64x2_t v, const LaneWindow2& w,
                                    uint64x2_t* patch) {
  const int64x2_t k7ff = vdupq_n_s64(0x7ff);
  const uint64x2_t sign_mask = vdupq_n_u64(0x8000000000000000ULL);
  const float64x2_t magic = vdupq_n_f64(0x1.0p52);
  const uint64x2_t bits = vreinterpretq_u64_f64(v);
  const int64x2_t field =
      vandq_s64(vreinterpretq_s64_u64(vshrq_n_u64(bits, 52)), k7ff);
  uint64x2_t fallback =
      vorrq_u64(vceqq_s64(field, vdupq_n_s64(0)), vceqq_s64(field, k7ff));
  fallback = vorrq_u64(fallback, vcgtq_s64(field, w.field_hi));
  fallback = vorrq_u64(fallback, w.exact);
  const uint64x2_t below = vcgtq_s64(w.field_lo, field);
  if (!w.gradual) fallback = vorrq_u64(fallback, below);
  const int64x2_t gridf = vbslq_s64(below, w.field_lo, field);
  const float64x2_t scale1 = vreinterpretq_f64_s64(
      vshlq_n_s64(vsubq_s64(w.s1_bias, gridf), 52));
  const float64x2_t scale2 = vreinterpretq_f64_s64(
      vshlq_n_s64(vsubq_s64(gridf, w.s2_bias), 52));
  const float64x2_t t = vmulq_f64(v, scale1);
  const float64x2_t signed_magic = vreinterpretq_f64_u64(
      vorrq_u64(vreinterpretq_u64_f64(magic), vandq_u64(bits, sign_mask)));
  const float64x2_t rounded =
      vsubq_f64(vaddq_f64(t, signed_magic), signed_magic);
  float64x2_t q = vmulq_f64(rounded, scale2);
  const uint64x2_t hit_zero = vceqq_f64(q, vdupq_n_f64(0.0));
  const float64x2_t q_signed = vreinterpretq_f64_u64(
      vorrq_u64(vreinterpretq_u64_f64(q), vandq_u64(bits, sign_mask)));
  q = vbslq_f64(hit_zero, q_signed, q);
  const uint64x2_t overflow = vcgeq_f64(vabsq_f64(q), w.ceiling);
  *patch = vorrq_u64(fallback, overflow);
  return q;
}

void quantize_span_fast_neon(const double* x, std::size_t n,
                             const QuantSpanArgs& args, double* out) {
  const LaneWindow2 w{
      .field_lo = vdupq_n_s64(args.lo + 1023),
      .field_hi = vdupq_n_s64(args.hi + 1023),
      .exact = vdupq_n_u64(0),
      .ceiling = vdupq_n_f64(args.ceiling),
      .s1_bias = vdupq_n_s64(2046 + args.f_bits),
      .s2_bias = vdupq_n_s64(args.f_bits),
      .gradual = args.gradual,
  };
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint64x2_t patch;
    vst1q_f64(out + i, round_lanes_neon(vld1q_f64(x + i), w, &patch));
    if (vgetq_lane_u64(patch, 0) != 0) {
      out[i] = quantize_value(x[i], args.base, args.e_bits, args.f_bits,
                              *args.policy, nullptr);
    }
    if (vgetq_lane_u64(patch, 1) != 0) {
      out[i + 1] = quantize_value(x[i + 1], args.base, args.e_bits,
                                  args.f_bits, *args.policy, nullptr);
    }
  }
  if (i < n) quantize_span_fast_scalar(x + i, n - i, args, out + i);
}

// Largest finite |x[i]| over a contiguous segment: two running maxima of
// the magnitudes with inf/nan lanes masked to zero (max is exact, so the
// lane split cannot change the result).
double max_finite_abs_neon(const double* x, std::size_t n) {
  const float64x2_t inf = vdupq_n_f64(HUGE_VAL);
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t a = vabsq_f64(vld1q_f64(x + i));
    acc = vmaxq_f64(acc, vreinterpretq_f64_u64(vandq_u64(
                             vreinterpretq_u64_f64(a), vcltq_f64(a, inf))));
  }
  double m = std::max(vgetq_lane_f64(acc, 0), vgetq_lane_f64(acc, 1));
  for (; i < n; ++i) {
    const double a = std::abs(x[i]);
    if (a < HUGE_VAL && a > m) m = a;
  }
  return m;
}

// One contiguous segment: the block base from the vector maximum scan,
// then the two-lane span path.
void quantize_segment_neon(const double* x, std::size_t n,
                           const QuantTileArgs& args, double* out) {
  const int base = tile_column_base(max_finite_abs_neon(x, n), x, n, 1, args);
  quantize_segment(x, n, base, args, &quantize_span_fast_neon, out);
}

// Two interleaved columns of a tile (x and out point at the pair's first
// column of row 0): the block maxima scanned in lanes, then each row
// rounded under the two columns' windows; a column that fails the
// fast-path guard is patched with the exact quantize_value.
void quantize_pair_neon(const double* x, std::size_t rows, std::size_t k,
                        const QuantTileArgs& args, double* out) {
  const float64x2_t inf = vdupq_n_f64(HUGE_VAL);
  float64x2_t vmax = vdupq_n_f64(0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const float64x2_t a = vabsq_f64(vld1q_f64(x + r * k));
    vmax = vmaxq_f64(vmax, vreinterpretq_f64_u64(vandq_u64(
                               vreinterpretq_u64_f64(a), vcltq_f64(a, inf))));
  }
  const double max_abs[2] = {vgetq_lane_f64(vmax, 0),
                             vgetq_lane_f64(vmax, 1)};
  int base[2];
  std::int64_t lo_field[2], hi_field[2];
  std::uint64_t exact[2];
  double ceiling[2];
  for (std::size_t l = 0; l < 2; ++l) {
    base[l] = tile_column_base(max_abs[l], x + l, rows, k, args);
    QuantSpanArgs span;
    const bool fast = quantize_span_args(base[l], args.e_bits, args.f_bits,
                                         *args.policy, &span);
    lo_field[l] = span.lo + 1023;
    hi_field[l] = span.hi + 1023;
    ceiling[l] = span.ceiling;
    exact[l] = fast ? 0 : ~std::uint64_t{0};
  }
  const LaneWindow2 w{
      .field_lo = vld1q_s64(lo_field),
      .field_hi = vld1q_s64(hi_field),
      .exact = vld1q_u64(exact),
      .ceiling = vld1q_f64(ceiling),
      .s1_bias = vdupq_n_s64(2046 + args.f_bits),
      .s2_bias = vdupq_n_s64(args.f_bits),
      .gradual = args.policy->underflow == UnderflowMode::kDenormalize,
  };
  for (std::size_t r = 0; r < rows; ++r) {
    const double* xr = x + r * k;
    double* outr = out + r * k;
    uint64x2_t patch;
    vst1q_f64(outr, round_lanes_neon(vld1q_f64(xr), w, &patch));
    if (vgetq_lane_u64(patch, 0) != 0) {
      outr[0] = quantize_value(xr[0], base[0], args.e_bits, args.f_bits,
                               *args.policy, nullptr);
    }
    if (vgetq_lane_u64(patch, 1) != 0) {
      outr[1] = quantize_value(xr[1], base[1], args.e_bits, args.f_bits,
                               *args.policy, nullptr);
    }
  }
}

void quantize_tile_neon(const double* x, std::size_t rows, std::size_t k,
                        const QuantTileArgs& args, double* out) {
  std::size_t c = 0;
  if (k > 1) {
    for (; c + 2 <= k; c += 2) quantize_pair_neon(x + c, rows, k, args, out + c);
  }
  quantize_tile_by_column(x, rows, k, c, args, &quantize_segment_neon, out);
}

// Eight-lane ABFT reduction: four 128-bit accumulators per sum, register
// pair (q, q+1) holding logical lanes (2q, 2q+1) — the same element-mod-8
// lane split as the scalar reference, with vabsq_f64 standing in for
// std::abs and the shared scalar expression doing the cross-lane combine.
void abft_reduce_neon(const double* w, const double* x, std::size_t nx,
                      const double* y, std::size_t ny, double* out) {
  float64x2_t chk_q[4] = {vdupq_n_f64(0.0), vdupq_n_f64(0.0),
                          vdupq_n_f64(0.0), vdupq_n_f64(0.0)};
  float64x2_t cab_q[4] = {vdupq_n_f64(0.0), vdupq_n_f64(0.0),
                          vdupq_n_f64(0.0), vdupq_n_f64(0.0)};
  std::size_t i = 0;
  for (; i + 8 <= nx; i += 8) {
    for (int q = 0; q < 4; ++q) {
      const float64x2_t t = vmulq_f64(vld1q_f64(w + i + 2 * q),
                                      vld1q_f64(x + i + 2 * q));
      chk_q[q] = vaddq_f64(chk_q[q], t);
      cab_q[q] = vaddq_f64(cab_q[q], vabsq_f64(t));
    }
  }
  double chk[8], chk_abs[8];
  for (int q = 0; q < 4; ++q) {
    vst1q_f64(chk + 2 * q, chk_q[q]);
    vst1q_f64(chk_abs + 2 * q, cab_q[q]);
  }
  for (; i < nx; ++i) {
    const double t = w[i] * x[i];
    chk[0] += t;
    chk_abs[0] += std::abs(t);
  }
  float64x2_t sum_q[4] = {vdupq_n_f64(0.0), vdupq_n_f64(0.0),
                          vdupq_n_f64(0.0), vdupq_n_f64(0.0)};
  float64x2_t sab_q[4] = {vdupq_n_f64(0.0), vdupq_n_f64(0.0),
                          vdupq_n_f64(0.0), vdupq_n_f64(0.0)};
  std::size_t r = 0;
  for (; r + 8 <= ny; r += 8) {
    for (int q = 0; q < 4; ++q) {
      const float64x2_t v = vld1q_f64(y + r + 2 * q);
      sum_q[q] = vaddq_f64(sum_q[q], v);
      sab_q[q] = vaddq_f64(sab_q[q], vabsq_f64(v));
    }
  }
  double sum[8], sum_abs[8];
  for (int q = 0; q < 4; ++q) {
    vst1q_f64(sum + 2 * q, sum_q[q]);
    vst1q_f64(sum_abs + 2 * q, sab_q[q]);
  }
  for (; r < ny; ++r) {
    sum[0] += y[r];
    sum_abs[0] += std::abs(y[r]);
  }
  out[0] = detail::abft_lane_combine(chk);
  out[1] = detail::abft_lane_combine(chk_abs);
  out[2] = detail::abft_lane_combine(sum);
  out[3] = detail::abft_lane_combine(sum_abs);
}

// The register type the lane ABFT reduction runs on: two columns per
// float64x2_t.
struct NeonLanes {
  using T = float64x2_t;
  static constexpr std::size_t kWidth = 2;
  static T load(const double* p) { return vld1q_f64(p); }
  static void store(double* p, T v) { vst1q_f64(p, v); }
  static T set1(double v) { return vdupq_n_f64(v); }
  static T add(T a, T b) { return vaddq_f64(a, b); }
  static T mul(T a, T b) { return vmulq_f64(a, b); }
  static T abs(T a) { return vabsq_f64(a); }
};

void abft_reduce_lanes_neon(const double* w, const double* x, std::size_t nx,
                            const double* y, std::size_t ny, std::size_t k,
                            double* out) {
  if (k == 1) {
    abft_reduce_neon(w, x, nx, y, ny, out);
    return;
  }
  detail::abft_reduce_lanes_by<NeonLanes>(w, x, nx, y, ny, k, out);
}

}  // namespace

const SweepKernels* neon_sweep_kernels() {
  static const SweepKernels kTable = {
      &spmv_rows_scalar,
      &spmm_rows_neon,
      &quantize_span_fast_neon,
      &abft_reduce_neon,
      &quantize_tile_neon,
      &abft_reduce_lanes_neon,
  };
  return &kTable;
}

}  // namespace refloat::core

#else  // !aarch64

namespace refloat::core {
const SweepKernels* neon_sweep_kernels() { return nullptr; }
}  // namespace refloat::core

#endif

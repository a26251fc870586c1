// AVX2 implementations of the sweep kernel table (x86-64 only; this TU is
// compiled with -mavx2 -ffp-contract=off and its functions execute only
// after cpuid reports AVX2).
//
// Bit-identity discipline — every kernel reproduces the scalar reference
// exactly:
//   * multiplies use _mm256_mul_pd and adds _mm256_add_pd, never an FMA —
//     fusing would skip the intermediate rounding the scalar path performs;
//   * per output slot, operations land in the same order the scalar loop
//     issues them (the k-RHS sweep holds one running sum per column in a
//     vector lane; the single-RHS sweep is the scalar loop itself);
//   * remainder tails run the scalar reference loops from
//     kernels_scalar.cc (same -ffp-contract=off TU discipline);
//   * a stored fp32 matrix value is widened with vcvtps2pd / vcvtss2sd
//     before its multiply, which is exact, so both value codes produce the
//     scalar reference's products.
#include "src/core/simd.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "src/core/format.h"
#include "src/core/kernels_internal.h"
#include "src/sparse/packed_csr.h"

namespace refloat::core {

namespace {

// Broadcasts one stored matrix value, widened to double, to every lane: the
// fp32 code decodes with vcvtps2pd (exact), the fp64 code is a plain
// broadcast.
inline __m256d broadcast_value4(const float* p) {
  return _mm256_cvtps_pd(_mm_broadcast_ss(p));
}
inline __m256d broadcast_value4(const double* p) {
  return _mm256_broadcast_sd(p);
}
inline __m128d broadcast_value2(const float* p) {
  return _mm_set1_pd(static_cast<double>(*p));  // vcvtss2sd
}
inline __m128d broadcast_value2(const double* p) { return _mm_set1_pd(*p); }

// K-wide interleaved row sweep: one __m256d running sum per four columns,
// ys[0..K) = sum_e v_e * xs_e[0..K) with one mul and one add per column
// per entry in entry order — the scalar order exactly.
template <std::size_t K, typename V>
void spmm_rows_avx2_fixed(sparse::PackedRows<V> a, std::size_t r_begin,
                          std::size_t r_end, const double* __restrict__ x,
                          double* __restrict__ y) {
  static_assert(K % 4 == 0);
  constexpr std::size_t kVecs = K / 4;
  const sparse::Index* __restrict__ row_ptr = a.row_ptr;
  const std::uint32_t* __restrict__ col = a.col;
  const V* __restrict__ val = a.val;
  for (std::size_t r = r_begin; r < r_end; ++r) {
    __m256d acc[kVecs];
    for (std::size_t i = 0; i < kVecs; ++i) acc[i] = _mm256_setzero_pd();
    const auto end = static_cast<std::size_t>(row_ptr[r + 1]);
    for (auto e = static_cast<std::size_t>(row_ptr[r]); e < end; ++e) {
      const __m256d v = broadcast_value4(val + e);
      const double* __restrict__ xs = x + std::size_t{col[e]} * K;
      for (std::size_t i = 0; i < kVecs; ++i) {
        acc[i] = _mm256_add_pd(acc[i],
                               _mm256_mul_pd(v, _mm256_loadu_pd(xs + 4 * i)));
      }
    }
    for (std::size_t i = 0; i < kVecs; ++i) {
      _mm256_storeu_pd(y + r * K + 4 * i, acc[i]);
    }
  }
}

// K=2 uses one SSE2 128-bit running sum (AVX2 implies SSE2).
template <typename V>
void spmm_rows_avx2_k2(sparse::PackedRows<V> a, std::size_t r_begin,
                       std::size_t r_end, const double* __restrict__ x,
                       double* __restrict__ y) {
  const sparse::Index* __restrict__ row_ptr = a.row_ptr;
  const std::uint32_t* __restrict__ col = a.col;
  const V* __restrict__ val = a.val;
  for (std::size_t r = r_begin; r < r_end; ++r) {
    __m128d acc = _mm_setzero_pd();
    const auto end = static_cast<std::size_t>(row_ptr[r + 1]);
    for (auto e = static_cast<std::size_t>(row_ptr[r]); e < end; ++e) {
      const __m128d prod = _mm_mul_pd(
          broadcast_value2(val + e), _mm_loadu_pd(x + std::size_t{col[e]} * 2));
      acc = _mm_add_pd(acc, prod);
    }
    _mm_storeu_pd(y + r * 2, acc);
  }
}

// The same sweep for the other widths up to 16: kVecs = ceil(k / 4)
// running sums, the last one over the 1..4 trailing columns through masked
// loads and stores, so each column still takes one mul and one add per
// entry in entry order. Lockstep batches reach these widths when columns
// converge and drop out.
template <std::size_t kVecs, typename V>
void spmm_rows_avx2_masked(sparse::PackedRows<V> a, std::size_t r_begin,
                           std::size_t r_end, std::size_t k,
                           const double* __restrict__ x,
                           double* __restrict__ y) {
  constexpr std::size_t kLast = kVecs - 1;
  const std::size_t tail = k - 4 * kLast;  // 1..4 columns
  const __m256i mask = _mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(tail)),
      _mm256_setr_epi64x(0, 1, 2, 3));
  const sparse::Index* __restrict__ row_ptr = a.row_ptr;
  const std::uint32_t* __restrict__ col = a.col;
  const V* __restrict__ val = a.val;
  for (std::size_t r = r_begin; r < r_end; ++r) {
    __m256d acc[kVecs];
    for (std::size_t i = 0; i < kVecs; ++i) acc[i] = _mm256_setzero_pd();
    const auto end = static_cast<std::size_t>(row_ptr[r + 1]);
    for (auto e = static_cast<std::size_t>(row_ptr[r]); e < end; ++e) {
      const __m256d v = broadcast_value4(val + e);
      const double* __restrict__ xs = x + std::size_t{col[e]} * k;
      for (std::size_t i = 0; i < kLast; ++i) {
        acc[i] = _mm256_add_pd(acc[i],
                               _mm256_mul_pd(v, _mm256_loadu_pd(xs + 4 * i)));
      }
      acc[kLast] = _mm256_add_pd(
          acc[kLast],
          _mm256_mul_pd(v, _mm256_maskload_pd(xs + 4 * kLast, mask)));
    }
    double* ys = y + r * k;
    for (std::size_t i = 0; i < kLast; ++i) {
      _mm256_storeu_pd(ys + 4 * i, acc[i]);
    }
    _mm256_maskstore_pd(ys + 4 * kLast, mask, acc[kLast]);
  }
}

void spmm_rows_avx2(const sparse::PackedCsr& a, std::size_t r_begin,
                    std::size_t r_end, std::size_t k, const double* x,
                    double* y) {
  a.visit([&](auto rows) {
    switch (k) {
      case 2: return spmm_rows_avx2_k2(rows, r_begin, r_end, x, y);
      case 4: return spmm_rows_avx2_fixed<4>(rows, r_begin, r_end, x, y);
      case 8: return spmm_rows_avx2_fixed<8>(rows, r_begin, r_end, x, y);
      case 16: return spmm_rows_avx2_fixed<16>(rows, r_begin, r_end, x, y);
      case 3: return spmm_rows_avx2_masked<1>(rows, r_begin, r_end, k, x, y);
      case 5:
      case 6:
      case 7: return spmm_rows_avx2_masked<2>(rows, r_begin, r_end, k, x, y);
      case 9:
      case 10:
      case 11:
      case 12: return spmm_rows_avx2_masked<3>(rows, r_begin, r_end, k, x, y);
      case 13:
      case 14:
      case 15: return spmm_rows_avx2_masked<4>(rows, r_begin, r_end, k, x, y);
      default:
        // Wider batches take the scalar loop (no serving or paper path
        // batches more than 16 columns).
        return scalar_sweep_kernels()->spmm_rows(a, r_begin, r_end, k, x, y);
    }
  });
}

// The window of the four-lane rounding, every bound a per-lane vector: a
// contiguous span broadcasts one block's bounds, a tile group holds one
// column's per lane.
struct LaneWindow4 {
  __m256i field_lo;  // biased exponent field of the window floor
  __m256i field_hi;  // ... and of the window top
  __m256i exact;     // all-ones where the lane's column fails the fast guard
  __m256d ceiling;   // a rounded |q| at or above it saturates
  __m256i s1_bias;   // 2046 + f
  __m256i s2_bias;   // f
  bool gradual;      // UnderflowMode::kDenormalize
};

// Four-lane quantize_span fast path over one register. Lane
// classification, grid selection, and the scale factors are integer ops on
// the IEEE bit patterns; the FP sequence per lane is exactly the scalar
// fast path's
//   round_even_small(v * 2^(f-grid)) * 2^(grid-f)
// (the sign-folded magic constant computes (x - M) + M for negative x as
// (x + (-M)) - (-M), which is the identical IEEE operation sequence).
// Returns the rounded lanes; *patch gets the mask of rare lanes — zeros,
// denormals, inf/nan, overflow, non-gradual underflow, post-round ceiling
// carries, exact columns — that the caller recomputes with quantize_value.
inline __m256d round_lanes_avx2(__m256d v, const LaneWindow4& w, int* patch) {
  const __m256i k7ff = _mm256_set1_epi64x(0x7ff);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d magic = _mm256_set1_pd(0x1.0p52);
  const __m256i bits = _mm256_castpd_si256(v);
  const __m256i field = _mm256_and_si256(_mm256_srli_epi64(bits, 52), k7ff);
  // Lanes that must take the exact path: zero/denormal (field 0), inf/nan
  // (field 0x7ff), above the window, or (without gradual underflow) below
  // it. Field values are tiny positives, so signed 64-bit compares are safe.
  __m256i fallback = _mm256_or_si256(
      _mm256_cmpeq_epi64(field, _mm256_setzero_si256()),
      _mm256_cmpeq_epi64(field, k7ff));
  fallback = _mm256_or_si256(fallback, _mm256_cmpgt_epi64(field, w.field_hi));
  fallback = _mm256_or_si256(fallback, w.exact);
  const __m256i below = _mm256_cmpgt_epi64(w.field_lo, field);
  if (!w.gradual) fallback = _mm256_or_si256(fallback, below);
  // grid = max(exponent, lo) — gradual-underflow lanes round on the window
  // floor's grid, in-window lanes on their own binade's.
  const __m256i gridf = _mm256_blendv_epi8(field, w.field_lo, below);
  // scale1 = 2^(f - grid): biased exponent 1023 + f - (gridf - 1023).
  const __m256d scale1 = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_sub_epi64(w.s1_bias, gridf), 52));
  // scale2 = 2^(grid - f): biased exponent gridf - f.
  const __m256d scale2 = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_sub_epi64(gridf, w.s2_bias), 52));
  const __m256d t = _mm256_mul_pd(v, scale1);
  const __m256d signed_magic =
      _mm256_or_pd(magic, _mm256_and_pd(v, sign_mask));
  const __m256d rounded =
      _mm256_sub_pd(_mm256_add_pd(t, signed_magic), signed_magic);
  __m256d q = _mm256_mul_pd(rounded, scale2);
  // Restore the signed zero quantize_value produces where rounding hit 0.
  const __m256d hit_zero = _mm256_cmp_pd(q, _mm256_setzero_pd(), _CMP_EQ_OQ);
  q = _mm256_blendv_pd(q, _mm256_or_pd(q, _mm256_and_pd(v, sign_mask)),
                       hit_zero);
  // Post-round ceiling carries saturate via the exact path.
  const __m256d overflow = _mm256_cmp_pd(_mm256_andnot_pd(sign_mask, q),
                                         w.ceiling, _CMP_GE_OQ);
  *patch = _mm256_movemask_pd(_mm256_castsi256_pd(fallback)) |
           _mm256_movemask_pd(overflow);
  return q;
}

void quantize_span_fast_avx2(const double* x, std::size_t n,
                             const QuantSpanArgs& args, double* out) {
  const LaneWindow4 w{
      .field_lo = _mm256_set1_epi64x(args.lo + 1023),
      .field_hi = _mm256_set1_epi64x(args.hi + 1023),
      .exact = _mm256_setzero_si256(),
      .ceiling = _mm256_set1_pd(args.ceiling),
      .s1_bias = _mm256_set1_epi64x(2046 + args.f_bits),
      .s2_bias = _mm256_set1_epi64x(args.f_bits),
      .gradual = args.gradual,
  };
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    int patch = 0;
    _mm256_storeu_pd(out + i,
                     round_lanes_avx2(_mm256_loadu_pd(x + i), w, &patch));
    for (std::size_t lane = 0; patch != 0; ++lane, patch >>= 1) {
      if ((patch & 1) != 0) {
        out[i + lane] = quantize_value(x[i + lane], args.base, args.e_bits,
                                       args.f_bits, *args.policy, nullptr);
      }
    }
  }
  if (i < n) quantize_span_fast_scalar(x + i, n - i, args, out + i);
}

// Largest finite |x[i]| over a contiguous segment: four running maxima of
// the magnitudes with inf/nan lanes masked to zero (max is exact, so the
// lane split cannot change the result).
double max_finite_abs_avx2(const double* x, std::size_t n) {
  const __m256d abs_mask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d inf = _mm256_set1_pd(HUGE_VAL);
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a = _mm256_and_pd(_mm256_loadu_pd(x + i), abs_mask);
    acc = _mm256_max_pd(acc,
                        _mm256_and_pd(a, _mm256_cmp_pd(a, inf, _CMP_LT_OQ)));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double m = std::max(std::max(lanes[0], lanes[1]),
                      std::max(lanes[2], lanes[3]));
  for (; i < n; ++i) {
    const double a = std::abs(x[i]);
    if (a < HUGE_VAL && a > m) m = a;
  }
  return m;
}

// One contiguous segment: the block base from the vector maximum scan,
// then the four-lane span path.
void quantize_segment_avx2(const double* x, std::size_t n,
                           const QuantTileArgs& args, double* out) {
  const int base = tile_column_base(max_finite_abs_avx2(x, n), x, n, 1, args);
  quantize_segment(x, n, base, args, &quantize_span_fast_avx2, out);
}

// Four interleaved columns of a tile (x and out point at the group's first
// column of row 0). Pass 1 scans the four block maxima in lanes; pass 2
// rounds each row under the four columns' windows, a column that fails
// the fast-path guard patched with the exact quantize_value like any rare
// lane.
void quantize_quad_avx2(const double* x, std::size_t rows, std::size_t k,
                        const QuantTileArgs& args, double* out) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d inf = _mm256_set1_pd(HUGE_VAL);
  __m256d vmax = _mm256_setzero_pd();
  for (std::size_t r = 0; r < rows; ++r) {
    const __m256d a = _mm256_andnot_pd(sign_mask, _mm256_loadu_pd(x + r * k));
    vmax = _mm256_max_pd(vmax,
                         _mm256_and_pd(a, _mm256_cmp_pd(a, inf, _CMP_LT_OQ)));
  }
  alignas(32) double max_abs[4];
  _mm256_store_pd(max_abs, vmax);
  int base[4];
  alignas(32) long long lo_field[4], hi_field[4], exact[4];
  alignas(32) double ceiling[4];
  for (std::size_t l = 0; l < 4; ++l) {
    base[l] = tile_column_base(max_abs[l], x + l, rows, k, args);
    QuantSpanArgs span;
    const bool fast = quantize_span_args(base[l], args.e_bits, args.f_bits,
                                         *args.policy, &span);
    lo_field[l] = span.lo + 1023;
    hi_field[l] = span.hi + 1023;
    ceiling[l] = span.ceiling;
    exact[l] = fast ? 0 : -1;
  }
  const auto load = [](const long long* p) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
  };
  const LaneWindow4 w{
      .field_lo = load(lo_field),
      .field_hi = load(hi_field),
      .exact = load(exact),
      .ceiling = _mm256_load_pd(ceiling),
      .s1_bias = _mm256_set1_epi64x(2046 + args.f_bits),
      .s2_bias = _mm256_set1_epi64x(args.f_bits),
      .gradual = args.policy->underflow == UnderflowMode::kDenormalize,
  };
  for (std::size_t r = 0; r < rows; ++r) {
    const double* xr = x + r * k;
    double* outr = out + r * k;
    int patch = 0;
    _mm256_storeu_pd(outr, round_lanes_avx2(_mm256_loadu_pd(xr), w, &patch));
    for (std::size_t l = 0; patch != 0; ++l, patch >>= 1) {
      if ((patch & 1) != 0) {
        outr[l] = quantize_value(xr[l], base[l], args.e_bits, args.f_bits,
                                 *args.policy, nullptr);
      }
    }
  }
}

void quantize_tile_avx2(const double* x, std::size_t rows, std::size_t k,
                        const QuantTileArgs& args, double* out) {
  std::size_t c = 0;
  if (k > 1) {
    for (; c + 4 <= k; c += 4) quantize_quad_avx2(x + c, rows, k, args, out + c);
  }
  quantize_tile_by_column(x, rows, k, c, args, &quantize_segment_avx2, out);
}

// Eight-lane ABFT reduction: one ymm register pair per accumulator, lane l
// of {lo, hi} holding elements congruent to l mod 8 — exactly the scalar
// reference's lane split. |t| is the sign-bit mask (the scalar std::abs
// compiles to the same andpd), and the cross-lane combine defers to the
// shared scalar expression, so the result is bit-identical to the
// reference at every length.
void abft_reduce_avx2(const double* w, const double* x, std::size_t nx,
                      const double* y, std::size_t ny, double* out) {
  const __m256d abs_mask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(0x7fffffffffffffffLL));
  __m256d chk_lo = _mm256_setzero_pd(), chk_hi = _mm256_setzero_pd();
  __m256d cab_lo = _mm256_setzero_pd(), cab_hi = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= nx; i += 8) {
    const __m256d t_lo =
        _mm256_mul_pd(_mm256_loadu_pd(w + i), _mm256_loadu_pd(x + i));
    const __m256d t_hi =
        _mm256_mul_pd(_mm256_loadu_pd(w + i + 4), _mm256_loadu_pd(x + i + 4));
    chk_lo = _mm256_add_pd(chk_lo, t_lo);
    chk_hi = _mm256_add_pd(chk_hi, t_hi);
    cab_lo = _mm256_add_pd(cab_lo, _mm256_and_pd(t_lo, abs_mask));
    cab_hi = _mm256_add_pd(cab_hi, _mm256_and_pd(t_hi, abs_mask));
  }
  alignas(32) double chk[8], chk_abs[8];
  _mm256_store_pd(chk, chk_lo);
  _mm256_store_pd(chk + 4, chk_hi);
  _mm256_store_pd(chk_abs, cab_lo);
  _mm256_store_pd(chk_abs + 4, cab_hi);
  for (; i < nx; ++i) {
    const double t = w[i] * x[i];
    chk[0] += t;
    chk_abs[0] += std::abs(t);
  }
  __m256d sum_lo = _mm256_setzero_pd(), sum_hi = _mm256_setzero_pd();
  __m256d sab_lo = _mm256_setzero_pd(), sab_hi = _mm256_setzero_pd();
  std::size_t r = 0;
  for (; r + 8 <= ny; r += 8) {
    const __m256d v_lo = _mm256_loadu_pd(y + r);
    const __m256d v_hi = _mm256_loadu_pd(y + r + 4);
    sum_lo = _mm256_add_pd(sum_lo, v_lo);
    sum_hi = _mm256_add_pd(sum_hi, v_hi);
    sab_lo = _mm256_add_pd(sab_lo, _mm256_and_pd(v_lo, abs_mask));
    sab_hi = _mm256_add_pd(sab_hi, _mm256_and_pd(v_hi, abs_mask));
  }
  alignas(32) double sum[8], sum_abs[8];
  _mm256_store_pd(sum, sum_lo);
  _mm256_store_pd(sum + 4, sum_hi);
  _mm256_store_pd(sum_abs, sab_lo);
  _mm256_store_pd(sum_abs + 4, sab_hi);
  for (; r < ny; ++r) {
    sum[0] += y[r];
    sum_abs[0] += std::abs(y[r]);
  }
  out[0] = detail::abft_lane_combine(chk);
  out[1] = detail::abft_lane_combine(chk_abs);
  out[2] = detail::abft_lane_combine(sum);
  out[3] = detail::abft_lane_combine(sum_abs);
}

// The register type the lane ABFT reduction runs on: four columns per
// __m256d, |t| as the sign-bit mask (what std::abs compiles to).
struct Avx2Lanes {
  using T = __m256d;
  static constexpr std::size_t kWidth = 4;
  static T load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, T v) { _mm256_storeu_pd(p, v); }
  static T set1(double v) { return _mm256_set1_pd(v); }
  static T add(T a, T b) { return _mm256_add_pd(a, b); }
  static T mul(T a, T b) { return _mm256_mul_pd(a, b); }
  static T abs(T a) {
    return _mm256_and_pd(
        a, _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL)));
  }
};

void abft_reduce_lanes_avx2(const double* w, const double* x, std::size_t nx,
                            const double* y, std::size_t ny, std::size_t k,
                            double* out) {
  if (k == 1) {
    abft_reduce_avx2(w, x, nx, y, ny, out);
    return;
  }
  detail::abft_reduce_lanes_by<Avx2Lanes>(w, x, nx, y, ny, k, out);
}

}  // namespace

const SweepKernels* avx2_sweep_kernels() {
  static const SweepKernels kTable = {
      // The single-RHS row sweep stays scalar: each row's running sum is a
      // serial dependency the bit-identity contract imposes, and a
      // vectorized gather + multiply measured no consistent gain over the
      // scalar loop on the suite stand-ins (4-7 entries per row).
      &spmv_rows_scalar,
      &spmm_rows_avx2,
      &quantize_span_fast_avx2,
      &abft_reduce_avx2,
      &quantize_tile_avx2,
      &abft_reduce_lanes_avx2,
  };
  return &kTable;
}

}  // namespace refloat::core

#else  // !x86-64

namespace refloat::core {
const SweepKernels* avx2_sweep_kernels() { return nullptr; }
}  // namespace refloat::core

#endif

#include "src/core/format.h"

#include <cmath>
#include <cstdint>

#include "src/core/kernels_internal.h"
#include "src/core/simd.h"

namespace refloat::core {

long model_bits(int e, int f) { return (1L << e) + f + 1; }

long long storage_bits_per_value(const Format& format) {
  return 2LL * format.b + 1 + format.e + format.f;
}

long long storage_bits_per_block(const Format& format, long long block_grid) {
  (void)format;
  long long bits = 1;
  while ((1LL << bits) < block_grid) ++bits;
  return 2 * bits + 11;
}

Format default_format() { return Format{.b = 7, .e = 3, .f = 3, .ev = 3, .fv = 8}; }

Format default_format_fv16() {
  Format fmt = default_format();
  fmt.fv = 16;
  return fmt;
}

Format format_bfp64() {
  return Format{.b = 6, .e = 0, .f = 52, .ev = 0, .fv = 52};
}
Format format_bfloat16() {
  return Format{.b = 0, .e = 8, .f = 7, .ev = 8, .fv = 7};
}
Format format_msfp9() {
  return Format{.b = 0, .e = 5, .f = 3, .ev = 5, .fv = 3};
}
Format format_tensorfloat32() {
  return Format{.b = 0, .e = 8, .f = 10, .ev = 8, .fv = 10};
}
Format format_fp32() {
  return Format{.b = 0, .e = 8, .f = 23, .ev = 8, .fv = 23};
}
Format format_fp64() {
  return Format{.b = 0, .e = 11, .f = 52, .ev = 11, .fv = 52};
}

QuantPolicy paper_literal_policy() {
  QuantPolicy policy;
  policy.base = BaseMode::kMeanEq5;
  policy.window = WindowMode::kSymmetric;
  return policy;
}

namespace {

// Offset window [lo, hi] of representable exponents around the base.
void window_bounds(int base, int e_bits, WindowMode mode, int* lo, int* hi) {
  if (e_bits <= 0) {
    *lo = *hi = base;
    return;
  }
  if (mode == WindowMode::kSymmetric) {
    *lo = base - (1 << (e_bits - 1)) + 1;
    *hi = base + (1 << (e_bits - 1));
  } else {
    *lo = base - (1 << e_bits) + 1;
    *hi = base;
  }
}

double saturated(double sign, int hi, int f_bits) {
  return sign * std::ldexp(2.0 - std::ldexp(1.0, -f_bits), hi);
}

// Round |v|'s mantissa to f bits at exponent E (round-to-nearest-even).
double round_at(double v, int exponent, int f_bits) {
  const double step = std::ldexp(1.0, exponent - f_bits);
  return std::nearbyint(v / step) * step;
}

using detail::exponent_field;

}  // namespace

int window_floor(int base, int e_bits, WindowMode mode) {
  int lo = 0;
  int hi = 0;
  window_bounds(base, e_bits, mode, &lo, &hi);
  return lo;
}

int select_block_base(std::span<const double> values, int e_bits,
                      const QuantPolicy& policy) {
  (void)e_bits;
  if (policy.base == BaseMode::kMaxAnchor) {
    // Hot path (runs once per vector segment per SpMV): the max exponent is
    // the max of the raw exponent fields — zeros and denormals read field 0
    // and cannot win against any normal value, inf/nan are skipped like the
    // exact loop below skips them. Only an all-zero/denormal segment needs
    // the exact ilogb treatment.
    int max_field = 0;
    for (const double v : values) {
      const int field = exponent_field(v);
      if (field == 0x7ff) continue;
      if (field > max_field) max_field = field;
    }
    if (max_field > 0) return max_field - 1023;
  }
  bool any = false;
  int max_e = 0;
  long long sum_e = 0;
  std::size_t count = 0;
  for (const double v : values) {
    if (v == 0.0) continue;
    // ilogb via the exponent field (this runs once per element per SpMV);
    // 0x7ff is inf/nan (skipped, as before), 0 is denormal (libm fallback).
    const int field = exponent_field(v);
    if (field == 0x7ff) continue;
    const int e = field == 0 ? std::ilogb(v) : field - 1023;
    if (!any || e > max_e) max_e = e;
    sum_e += e;
    ++count;
    any = true;
  }
  if (!any) return 0;
  if (policy.base == BaseMode::kMeanEq5) {
    return static_cast<int>(std::llround(
        static_cast<double>(sum_e) / static_cast<double>(count)));
  }
  return max_e;
}

double quantize_value(double v, int base, int e_bits, int f_bits,
                      const QuantPolicy& policy, QuantTally* tally) {
  if (tally != nullptr) ++tally->values;
  if (v == 0.0 || !std::isfinite(v)) return v;

  int lo = 0;
  int hi = 0;
  window_bounds(base, e_bits, policy.window, &lo, &hi);
  const double sign = v < 0.0 ? -1.0 : 1.0;
  const int exponent = std::ilogb(v);

  if (exponent > hi) {
    if (tally != nullptr) ++tally->overflowed;
    if (policy.overflow == OverflowMode::kClampOffsetKeepFraction) {
      // Keep the (truncated) fraction, clamp the offset to the ceiling. A
      // mantissa that rounds up to 2.0 would escape the ceiling; saturate.
      const double mantissa = std::abs(v) / std::ldexp(1.0, exponent);
      const double rounded = round_at(mantissa, 0, f_bits);
      if (rounded >= 2.0) return saturated(sign, hi, f_bits);
      return sign * std::ldexp(rounded, hi);
    }
    return saturated(sign, hi, f_bits);
  }

  if (exponent < lo) {
    switch (policy.underflow) {
      case UnderflowMode::kFlushToZero:
        if (tally != nullptr) ++tally->flushed_to_zero;
        return 0.0;
      case UnderflowMode::kClampOffsetKeepFraction: {
        if (tally != nullptr) ++tally->underflowed;
        const double mantissa = std::abs(v) / std::ldexp(1.0, exponent);
        return sign * std::ldexp(round_at(mantissa, 0, f_bits), lo);
      }
      case UnderflowMode::kDenormalize: {
        // Gradual underflow: snap onto the window floor's fraction grid.
        const double q = round_at(v, lo, f_bits);
        if (tally != nullptr) {
          if (q == 0.0) {
            ++tally->flushed_to_zero;
          } else {
            ++tally->underflowed;
          }
        }
        return q;
      }
    }
  }

  double q = round_at(v, exponent, f_bits);
  // Rounding can carry the mantissa to 2.0, bumping the exponent past the
  // window ceiling.
  if (std::abs(q) >= std::ldexp(2.0, hi)) {
    if (tally != nullptr) ++tally->overflowed;
    return saturated(sign, hi, f_bits);
  }
  return q;
}

bool quantize_span_args(int base, int e_bits, int f_bits,
                        const QuantPolicy& policy, QuantSpanArgs* args) {
  int lo = 0;
  int hi = 0;
  window_bounds(base, e_bits, policy.window, &lo, &hi);
  args->base = base;
  args->e_bits = e_bits;
  args->f_bits = f_bits;
  args->lo = lo;
  args->hi = hi;
  args->gradual = policy.underflow == UnderflowMode::kDenormalize;
  args->ceiling = std::ldexp(2.0, hi);
  args->policy = &policy;
  // The fast path needs every 2^(grid +- f) in the normal range and the
  // scaled mantissa below 2^52 (where the magic-constant rounding is
  // exact). Outside that — extreme bases, f = 52 formats — only the exact
  // scalar path is bit-true.
  return lo - f_bits >= -1022 && hi - f_bits <= 1022 && f_bits <= 51;
}

void quantize_segment(const double* x, std::size_t n, int base,
                      const QuantTileArgs& args, QuantSpanFastFn span_fast,
                      double* out) {
  QuantSpanArgs span;
  if (quantize_span_args(base, args.e_bits, args.f_bits, *args.policy,
                         &span)) {
    span_fast(x, n, span, out);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = quantize_value(x[i], base, args.e_bits, args.f_bits,
                            *args.policy, nullptr);
  }
}

void quantize_span(std::span<const double> x, int base, int e_bits,
                   int f_bits, const QuantPolicy& policy,
                   std::span<double> out) {
  // The per-element loop lives in the SIMD kernel table (kernels_*.cc) —
  // scalar reference, AVX2, or NEON per the active dispatch — all
  // bit-identical to calling quantize_value element-wise.
  const QuantTileArgs args{.e_bits = e_bits, .f_bits = f_bits,
                           .policy = &policy};
  quantize_segment(x.data(), x.size(), base, args,
                   sweep_kernels().quantize_span_fast, out.data());
}

double quantize_scalar(double v, int e_bits, int f_bits, QuantTally* tally) {
  if (tally != nullptr) ++tally->values;
  if (v == 0.0 || !std::isfinite(v)) return v;

  const int bias = (1 << (e_bits - 1)) - 1;
  const int emax = bias;
  const int emin = 1 - bias;
  const double sign = v < 0.0 ? -1.0 : 1.0;
  const int exponent = std::ilogb(v);

  if (exponent > emax) {
    if (tally != nullptr) ++tally->overflowed;
    return saturated(sign, emax, f_bits);
  }
  if (exponent < emin) {
    const double q = round_at(v, emin, f_bits);
    if (tally != nullptr) {
      if (q == 0.0) {
        ++tally->flushed_to_zero;
      } else {
        ++tally->underflowed;
      }
    }
    return q;
  }
  double q = round_at(v, exponent, f_bits);
  if (std::abs(q) >= std::ldexp(2.0, emax)) {
    if (tally != nullptr) ++tally->overflowed;
    return saturated(sign, emax, f_bits);
  }
  return q;
}

}  // namespace refloat::core

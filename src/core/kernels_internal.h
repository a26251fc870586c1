// Shared internals of the SIMD kernel TUs (kernels_scalar.cc,
// kernels_avx2.cc, kernels_neon.cc) and format.cc: IEEE bit-pattern
// helpers. Not part of the public core/ API.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace refloat::sparse {
class PackedCsr;
}  // namespace refloat::sparse

namespace refloat::core {

struct SweepKernels;
struct QuantSpanArgs;

// Per-ISA table factories. Each lives in its own TU so the vector ones can
// be compiled with their target flags; an ISA the build cannot target
// returns nullptr and dispatch never offers it.
const SweepKernels* scalar_sweep_kernels();
const SweepKernels* avx2_sweep_kernels();
const SweepKernels* neon_sweep_kernels();

// Scalar reference loops reused by the vector TUs for remainder tails and
// as their single-RHS row sweep (same TU-level -ffp-contract=off
// semantics, so they stay bit-identical).
void quantize_span_fast_scalar(const double* x, std::size_t n,
                               const QuantSpanArgs& args, double* out);
void spmv_rows_scalar(const sparse::PackedCsr& a, std::size_t r_begin,
                      std::size_t r_end, const double* x, double* y);

}  // namespace refloat::core

namespace refloat::core::detail {

// Pinned cross-lane combine of the ABFT reduction's eight logical lanes
// (SweepKernels::abft_reduce). The pairing is chosen so every ISA reaches
// it with plain vector adds: a 256-bit register pair combines as
// lane+lane[+4] first, a 128-bit quartet as the same sums read two lanes
// at a time — either way the scalar expression below is the last word.
inline double abft_lane_combine(const double* lane) {
  const double m0 = lane[0] + lane[4];
  const double m1 = lane[1] + lane[5];
  const double m2 = lane[2] + lane[6];
  const double m3 = lane[3] + lane[7];
  return (m0 + m2) + (m1 + m3);
}

// Biased exponent field of the IEEE double: 0 = zero/denormal,
// 0x7ff = inf/nan, otherwise true exponent + 1023.
inline int exponent_field(double v) {
  return static_cast<int>((std::bit_cast<std::uint64_t>(v) >> 52) & 0x7ff);
}

// 2^n built from the bit pattern — only valid for n in [-1022, 1023]
// (normal range), which quantize_span guards up front.
inline double pow2(int n) {
  return std::bit_cast<double>(static_cast<std::uint64_t>(1023 + n) << 52);
}

// nearbyint for |x| < 2^51 in the default round-to-nearest-even mode: the
// classic add-then-subtract of 2^52 forces the fraction out of the
// significand, rounding ties to even exactly like the libm call.
inline double round_even_small(double x) {
  constexpr double kMagic = 0x1.0p52;
  return x >= 0.0 ? (x + kMagic) - kMagic : (x - kMagic) + kMagic;
}

}  // namespace refloat::core::detail

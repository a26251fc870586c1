// Shared internals of the SIMD kernel TUs (kernels_scalar.cc,
// kernels_avx2.cc, kernels_neon.cc) and format.cc: IEEE bit-pattern
// helpers. Not part of the public core/ API.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace refloat::sparse {
class PackedCsr;
}  // namespace refloat::sparse

namespace refloat::core {

struct SweepKernels;
struct QuantSpanArgs;
struct QuantTileArgs;
struct QuantPolicy;

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

// Fills `args` for quantizing against `base` (format.cc) and returns whether
// the fast path may run: false when some 2^(grid +- f) leaves the normal
// range or f > 51, where only the exact quantize_value is bit-true.
bool quantize_span_args(int base, int e_bits, int f_bits,
                        const QuantPolicy& policy, QuantSpanArgs* args);

// The fast path of one segment against `base` through `span_fast` (an ISA's
// quantize_span_fast), or the exact per-element loop when the guard fails —
// quantize_span's body with the kernel named instead of dispatched.
using QuantSpanFastFn = void (*)(const double*, std::size_t,
                                 const QuantSpanArgs&, double*);
void quantize_segment(const double* x, std::size_t n, int base,
                      const QuantTileArgs& args, QuantSpanFastFn span_fast,
                      double* out);

// Block base of column c of an interleaved tile (stride k) given its
// largest finite magnitude: the exponent field of `max_abs` when that is a
// normal number, else (all zero, denormal or non-finite) select_block_base
// on the gathered column.
int tile_column_base(double max_abs, const double* x, std::size_t rows,
                     std::size_t k, const QuantTileArgs& args);

// Quantizes columns [c_begin, k) of an interleaved tile one at a time:
// each is gathered into a per-thread contiguous buffer (k = 1 reads x in
// place), handed to `segment`, and scattered back into out.
using QuantSegmentFn = void (*)(const double*, std::size_t,
                                const QuantTileArgs&, double*);
void quantize_tile_by_column(const double* x, std::size_t rows,
                             std::size_t k, std::size_t c_begin,
                             const QuantTileArgs& args,
                             QuantSegmentFn segment, double* out);

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

// The vector ISAs' abft_reduce_lanes (k > 1), written once over a register
// type: Vec supplies T, kWidth columns per register, and load / store /
// set1 / add / mul / abs. It lives in an unnamed namespace so each kernel
// TU compiles its own copy under its own target flags.
namespace {

// Adds rows [i0, i1) of one term stream t(i) into eight logical-lane
// running sums of t and eight of |t|, held in registers and loaded from /
// stored to `lanes` (16 x V: the sums of t, then of |t|). Lane l takes the
// rows congruent to l mod 8; rows past the last whole group of eight —
// only the stream's tail — go to lane 0. i0 is a multiple of eight, so a
// stream cut into such chunks adds exactly as one pass.
template <typename V, typename Term, typename Add, typename Abs>
inline void lane_chunk(std::size_t i0, std::size_t i1, const Term& term,
                       const Add& add, const Abs& abs, V* lanes) {
  V acc[8];
  V acc_abs[8];
  for (std::size_t l = 0; l < 8; ++l) {
    acc[l] = lanes[l];
    acc_abs[l] = lanes[8 + l];
  }
  std::size_t i = i0;
  for (; i + 8 <= i1; i += 8) {
    for (std::size_t l = 0; l < 8; ++l) {
      const V t = term(i + l);
      acc[l] = add(acc[l], t);
      acc_abs[l] = add(acc_abs[l], abs(t));
    }
  }
  for (; i < i1; ++i) {
    const V t = term(i);
    acc[0] = add(acc[0], t);
    acc_abs[0] = add(acc_abs[0], abs(t));
  }
  for (std::size_t l = 0; l < 8; ++l) {
    lanes[l] = acc[l];
    lanes[8 + l] = acc_abs[l];
  }
}

// abft_reduce for every column of interleaved operands: rows are cut into
// L1-sized chunks, and within a chunk each group of kWidth columns runs
// one register pass per operand (w*x and |w*x|, then y and |y|), the
// k mod kWidth leftover columns a scalar pass each — per column exactly
// the single-column lane split, with the batch read from memory once.
template <typename Vec>
void abft_reduce_lanes_by(const double* w, const double* x, std::size_t nx,
                          const double* y, std::size_t ny, std::size_t k,
                          double* out) {
  using T = typename Vec::T;
  constexpr std::size_t kW = Vec::kWidth;
  constexpr std::size_t kChunk = 64;  // rows; a multiple of eight
  const std::size_t kv = k - k % kW;
  // Per column group: four sums x eight lanes, as abft_reduce's out[0..4)
  // — groups of kW columns in vector lanes, leftover columns alone.
  thread_local std::vector<double> groups;
  thread_local std::vector<double> singles;
  groups.assign(kv * 32, 0.0);
  singles.assign((k - kv) * 32, 0.0);
  const auto vadd = [](T a, T b) { return Vec::add(a, b); };
  const auto vabs = [](T a) { return Vec::abs(a); };
  const auto sadd = [](double a, double b) { return a + b; };
  const auto sabs = [](double a) { return std::abs(a); };
  const auto chunk = [&](std::size_t i0, std::size_t i1, const double* v,
                         const double* weight, std::size_t s) {
    for (std::size_t c = 0; c < kv; c += kW) {
      // Group c / kW, sums s and s + 1: 16 registers at (c + s * kW) * 8.
      double* slot = groups.data() + (c * 4 + s * kW) * 8;
      T lanes[16];
      for (std::size_t l = 0; l < 16; ++l) lanes[l] = Vec::load(slot + kW * l);
      if (weight != nullptr) {
        lane_chunk(
            i0, i1,
            [&](std::size_t i) {
              return Vec::mul(Vec::set1(weight[i]), Vec::load(v + i * k + c));
            },
            vadd, vabs, lanes);
      } else {
        lane_chunk(
            i0, i1, [&](std::size_t i) { return Vec::load(v + i * k + c); },
            vadd, vabs, lanes);
      }
      for (std::size_t l = 0; l < 16; ++l) Vec::store(slot + kW * l, lanes[l]);
    }
    for (std::size_t c = kv; c < k; ++c) {
      double* lanes = singles.data() + (c - kv) * 32 + s * 8;
      if (weight != nullptr) {
        lane_chunk(
            i0, i1, [&](std::size_t i) { return weight[i] * v[i * k + c]; },
            sadd, sabs, lanes);
      } else {
        lane_chunk(
            i0, i1, [&](std::size_t i) { return v[i * k + c]; }, sadd, sabs,
            lanes);
      }
    }
  };
  for (std::size_t i0 = 0; i0 < nx; i0 += kChunk) {
    chunk(i0, std::min(nx, i0 + kChunk), x, w, 0);
  }
  for (std::size_t i0 = 0; i0 < ny; i0 += kChunk) {
    chunk(i0, std::min(ny, i0 + kChunk), y, nullptr, 2);
  }
  // groups: group c / kW, sum s, lane l at ((c / kW * 4 + s) * 8 + l) * kW
  // + c % kW; singles: column c, sum s, lane l at (c - kv) * 32 + s * 8 + l.
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t s = 0; s < 4; ++s) {
      double lanes[8];
      for (std::size_t l = 0; l < 8; ++l) {
        lanes[l] = c < kv ? groups[((c / kW * 4 + s) * 8 + l) * kW + c % kW]
                          : singles[(c - kv) * 32 + s * 8 + l];
      }
      out[4 * c + s] = abft_lane_combine(lanes);
    }
  }
}

}  // namespace
}  // namespace refloat::core::detail

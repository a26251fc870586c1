#include "src/solvers/operator.h"

#include <cmath>
#include <utility>

#include "src/core/format.h"

namespace refloat::solve {

namespace {

// Bit truncation of an FP64 to e exponent-field bits / f fraction bits.
// Unlike core::quantize_scalar (a full IEEE mini-float with gradual
// underflow), a truncated exponent *field* has no extended denormal range:
// values whose exponent cannot be encoded flush to zero — which is what
// makes Table I's exponent sweep catastrophic at the crystm matrices'
// ~1e-10 physical scale.
double truncate_fp(double v, int e_bits, int f_bits) {
  if (v == 0.0 || !std::isfinite(v)) return v;
  const int bias = (1 << (e_bits - 1)) - 1;
  const int exponent = std::ilogb(v);
  if (exponent < 1 - bias) return 0.0;
  const double sign = v < 0.0 ? -1.0 : 1.0;
  if (exponent > bias) {
    return sign * std::ldexp(2.0 - std::ldexp(1.0, -f_bits), bias);
  }
  const double step = std::ldexp(1.0, exponent - f_bits);
  const double q = std::nearbyint(v / step) * step;
  if (std::abs(q) >= std::ldexp(2.0, bias)) {
    return sign * std::ldexp(2.0 - std::ldexp(1.0, -f_bits), bias);
  }
  return q;
}

sparse::Csr truncate_matrix(const sparse::Csr& a, int e_bits, int f_bits) {
  sparse::Csr out = a;
  for (double& v : out.mutable_values()) {
    v = truncate_fp(v, e_bits, f_bits);
  }
  return out;
}

}  // namespace

void CsrOperator::apply(std::span<const double> x, std::size_t k,
                        std::span<double> y,
                        std::span<const std::size_t> /*columns*/) {
  if (k == 1) {
    a_.spmv(x, y);
    return;
  }
  const auto n = static_cast<std::size_t>(a_.rows());
  x_col_.resize(n);
  y_col_.resize(n);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < n; ++i) x_col_[i] = x[i * k + j];
    a_.spmv(x_col_, y_col_);
    for (std::size_t i = 0; i < n; ++i) y[i * k + j] = y_col_[i];
  }
}

FeinbergOperator::FeinbergOperator(const sparse::Csr& a) {
  // Global base = the matrix's largest exponent; the 2^kExponentBits window
  // hangs below it, 52 fraction bits inside the window, flush outside.
  int global_max = 0;
  bool any = false;
  for (const double v : a.values()) {
    if (v == 0.0 || !std::isfinite(v)) continue;
    const int e = std::ilogb(v);
    if (!any || e > global_max) global_max = e;
    any = true;
  }
  core::QuantPolicy policy;
  policy.underflow = core::UnderflowMode::kFlushToZero;
  core::QuantTally tally;
  sparse::Csr out = a;
  for (double& v : out.mutable_values()) {
    v = core::quantize_value(v, global_max, kExponentBits, kFractionBits,
                             policy, &tally);
  }
  flushed_ = tally.flushed_to_zero;
  quantized_ = std::move(out);
}

TruncatedOperator::TruncatedOperator(const sparse::Csr& a, TruncateSpec spec)
    : spec_(spec),
      quantized_(truncate_matrix(a, spec.exp_bits, spec.frac_bits)) {}

void TruncatedOperator::apply(std::span<const double> x, std::size_t k,
                              std::span<double> y,
                              std::span<const std::size_t> columns) {
  scratch_.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    scratch_[i] = truncate_fp(x[i], spec_.exp_bits, spec_.frac_bits);
  }
  exact_.apply(scratch_, k, y, columns);
}

}  // namespace refloat::solve

// Lanczos extreme-eigenvalue estimation on a CSR matrix — an FP64
// sparse::Csr or a packed operand (the definiteness probe's input), one
// loop templated on the value type. Plain Lanczos
// without reorthogonalization: lambda_max converges fast; lambda_min is an
// *upper bound* that reads low for ill-conditioned matrices (a caveat
// bench_table5 reports explicitly).
//
// Each step makes two passes over n: one row loop forms w = A v and
// alpha = v . w together, and the update loop forms ||w||^2. The sums are
// the ones Csr::spmv, dot and norm2 form, in the same order, and
// lanczos.cc is built without FP contraction, so the estimate does not
// depend on -march.
//
// Lives in sparse/ (not gen/) so core/ can run a few steps on a quantized
// operator as a definiteness probe.
#pragma once

#include <cstdint>

#include "src/sparse/csr.h"
#include "src/sparse/packed_csr.h"

namespace refloat::sparse {

struct SpectrumEstimate {
  double lambda_min = 0.0;
  double lambda_max = 0.0;
  [[nodiscard]] double kappa() const {
    return lambda_min > 0.0 ? lambda_max / lambda_min : 0.0;
  }
};

// Runs min(steps, a.rows()) steps from a gaussian start vector drawn from
// seed. Returns a zero estimate when that is no step at all (steps <= 0 or
// an empty matrix); throws std::invalid_argument for a non-square matrix.
SpectrumEstimate lanczos_extremes(const Csr& a, int steps, std::uint64_t seed);
// The same estimate over a packed operand: bit-identical to running it on
// a.to_csr().
SpectrumEstimate lanczos_extremes(const PackedCsr& a, int steps,
                                  std::uint64_t seed);

}  // namespace refloat::sparse

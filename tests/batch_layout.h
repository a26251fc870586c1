// Conversions between k column-major vectors and the row-major interleaved
// batch layout (slot i*k + j holds element i of column j) that
// core::SweepBackend::sweep, solve::MultiOperator::apply and
// hw::HwSpmv::apply_multi take. Tests keep building and comparing columns
// and convert at the call.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace refloat::testing {

// The interleaved batch of the k column-major vectors in `cols`.
inline std::vector<double> interleaved(std::span<const double> cols,
                                       std::size_t k) {
  const std::size_t n = cols.size() / k;
  std::vector<double> out(cols.size());
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < n; ++i) out[i * k + j] = cols[j * n + i];
  }
  return out;
}

// The k column-major vectors of the interleaved `batch`.
inline std::vector<double> columns(std::span<const double> batch,
                                   std::size_t k) {
  const std::size_t n = batch.size() / k;
  std::vector<double> out(batch.size());
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < n; ++i) out[j * n + i] = batch[i * k + j];
  }
  return out;
}

}  // namespace refloat::testing

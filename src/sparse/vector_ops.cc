#include "src/sparse/vector_ops.h"

#include <algorithm>

namespace refloat::sparse {

double dot(std::span<const double> a, std::span<const double> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void xpby(std::span<const double> x, double beta, std::span<double> y) {
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] + beta * y[i];
}

void sub(std::span<const double> a, std::span<const double> b,
         std::span<double> out) {
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
}

void scale(double alpha, std::span<double> x) {
  for (double& v : x) v *= alpha;
}

void fill(std::span<double> x, double value) {
  std::fill(x.begin(), x.end(), value);
}

double max_abs(std::span<const double> a) {
  double m = 0.0;
  for (const double v : a) m = std::max(m, std::abs(v));
  return m;
}

}  // namespace refloat::sparse

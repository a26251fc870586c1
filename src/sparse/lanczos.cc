#include "src/sparse/lanczos.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/sparse/vector_ops.h"
#include "src/util/random.h"

namespace refloat::sparse {

namespace {

// Eigenvalue count of the symmetric tridiagonal (alpha, beta) strictly below
// x (Sturm sequence).
int sturm_count(const std::vector<double>& alpha,
                const std::vector<double>& beta, double x) {
  int count = 0;
  double d = 1.0;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    const double off = i == 0 ? 0.0 : beta[i - 1];
    d = alpha[i] - x - off * off / (d == 0.0 ? 1e-300 : d);
    if (d < 0.0) ++count;
  }
  return count;
}

double bisect_eigen(const std::vector<double>& alpha,
                    const std::vector<double>& beta, int index, double lo,
                    double hi) {
  for (int iter = 0; iter < 200 && hi - lo > 1e-14 * std::max(1.0, std::abs(hi));
       ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (sturm_count(alpha, beta, mid) > index) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return 0.5 * (lo + hi);
}

// The one Lanczos loop, over an FP64 CSR's or a packed operand's arrays
// (values widened to double, exactly).
template <typename C, typename V>
SpectrumEstimate lanczos_rows(RowArrays<C, V> a, Index rows, Index cols,
                              int steps, std::uint64_t seed) {
  if (rows != cols) {
    throw std::invalid_argument("lanczos_extremes: matrix is not square");
  }
  const auto n = static_cast<std::size_t>(rows);
  if (steps <= 0 || n == 0) return {};
  steps = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(steps), n));
  util::Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.gaussian();
  const double v_norm = norm2(v);
  for (double& x : v) x /= v_norm;

  const Index* row_ptr = a.row_ptr;
  const C* col_idx = a.col;
  const V* values = a.val;
  std::vector<double> v_prev(n, 0.0);
  std::vector<double> w(n);
  std::vector<double> alpha;
  std::vector<double> beta;
  alpha.reserve(static_cast<std::size_t>(steps));
  double beta_prev = 0.0;
  for (int k = 0; k < steps; ++k) {
    // w = A v and alpha = v . w in one row loop.
    double alpha_k = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      double acc = 0.0;
      for (auto j = static_cast<std::size_t>(row_ptr[r]);
           j < static_cast<std::size_t>(row_ptr[r + 1]); ++j) {
        acc += static_cast<double>(values[j]) *
               v[static_cast<std::size_t>(col_idx[j])];
      }
      w[r] = acc;
      alpha_k += v[r] * acc;
    }
    alpha.push_back(alpha_k);
    double w_norm2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      w[i] -= alpha_k * v[i] + beta_prev * v_prev[i];
      w_norm2 += w[i] * w[i];
    }
    const double b = std::sqrt(w_norm2);
    if (b < 1e-13 * std::abs(alpha_k) || k + 1 == steps) break;
    beta.push_back(b);
    beta_prev = b;
    std::swap(v_prev, v);
    for (std::size_t i = 0; i < n; ++i) v[i] = w[i] / b;
  }

  // Gershgorin bracket of the tridiagonal, then bisect the first and last
  // eigenvalues.
  double lo = alpha[0];
  double hi = alpha[0];
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    const double left = i > 0 ? beta[i - 1] : 0.0;
    const double right = i < beta.size() ? beta[i] : 0.0;
    lo = std::min(lo, alpha[i] - left - right);
    hi = std::max(hi, alpha[i] + left + right);
  }
  SpectrumEstimate est;
  est.lambda_min = bisect_eigen(alpha, beta, 0, lo, hi);
  est.lambda_max =
      bisect_eigen(alpha, beta, static_cast<int>(alpha.size()) - 1, lo, hi);
  return est;
}

}  // namespace

SpectrumEstimate lanczos_extremes(const Csr& a, int steps,
                                  std::uint64_t seed) {
  return lanczos_rows(row_arrays(a), a.rows(), a.cols(), steps, seed);
}

SpectrumEstimate lanczos_extremes(const PackedCsr& a, int steps,
                                  std::uint64_t seed) {
  return a.visit([&](auto rows) {
    return lanczos_rows(rows, a.rows(), a.cols(), steps, seed);
  });
}

}  // namespace refloat::sparse

#include "src/util/stats.h"

#include <algorithm>
#include <cmath>

namespace refloat::util {

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  std::size_t count = 0;
  for (const double x : v) {
    if (x <= 0.0) continue;
    log_sum += std::log(x);
    ++count;
  }
  if (count == 0) return 0.0;
  return std::exp(log_sum / static_cast<double>(count));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  if (v.size() % 2 == 1) return v[mid];
  return 0.5 * (v[mid - 1] + v[mid]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (p <= 0.0) return v.front();
  if (p >= 100.0) return v.back();
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + frac * (v[lo + 1] - v[lo]);
}

}  // namespace refloat::util

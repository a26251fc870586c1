// Small statistics helpers for the bench reports.
#pragma once

#include <vector>

namespace refloat::util {

double mean(const std::vector<double>& v);
double geomean(const std::vector<double>& v);  // ignores non-positive entries
double median(std::vector<double> v);

// Linear-interpolated percentile, p in [0, 100] (p=50 == median for odd
// sizes; the serving layer's p50/p99 latency columns). Empty input -> 0.
double percentile(std::vector<double> v, double p);

}  // namespace refloat::util

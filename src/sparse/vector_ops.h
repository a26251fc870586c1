// Dense vector kernels shared by the solvers and the benches.
#pragma once

#include <cmath>
#include <span>
#include <vector>

namespace refloat::sparse {

double dot(std::span<const double> a, std::span<const double> b);
double norm2(std::span<const double> a);
// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);
// y = x + beta * y
void xpby(std::span<const double> x, double beta, std::span<double> y);
// out = a - b
void sub(std::span<const double> a, std::span<const double> b,
         std::span<double> out);
void scale(double alpha, std::span<double> x);
void fill(std::span<double> x, double value);
double max_abs(std::span<const double> a);

}  // namespace refloat::sparse

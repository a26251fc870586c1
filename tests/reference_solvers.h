// The serial CG and BiCGSTAB the lockstep drivers (src/solvers/batched.h)
// are pinned against: one right-hand side, one `apply(x, y)` per operator
// application, the textbook loop with nothing batched. Column j of
// cg_multi / bicgstab_multi must reproduce these bit for bit (status,
// iterations, residuals, trace, solution). They are an independent
// statement of the methods, so a drift in the drivers' orchestration shows
// up as a mismatch instead of moving both sides together.
//
// `apply` is any callable taking (std::span<const double> x,
// std::span<double> y). default_sweep() adapts a backend's default-context
// sweep, so a noisy or bit-true reference draws the (seed, sequence++)
// stream the backend was built with, independently of BackendMultiOperator's
// per-column bookkeeping.
#pragma once

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "src/core/sweep_backend.h"
#include "src/solvers/monitor.h"
#include "src/solvers/solver.h"
#include "src/sparse/csr.h"
#include "src/sparse/vector_ops.h"

namespace refloat::solve::reference {

// Exact FP64 SpMV.
inline auto spmv(const sparse::Csr& a) {
  return [&a](std::span<const double> x, std::span<double> y) {
    a.spmv(x, y);
  };
}

// One default-context sweep of `backend` per application.
inline auto default_sweep(core::SweepBackend& backend) {
  return [&backend](std::span<const double> x, std::span<double> y) {
    backend.sweep(x, 1, y, {});
  };
}

// A one-column apply of `op` (batch column 0) per application.
inline auto one_column(MultiOperator& op) {
  return [&op](std::span<const double> x, std::span<double> y) {
    const std::size_t column = 0;
    op.apply(x, 1, y, {&column, 1});
  };
}

template <class Apply>
SolveResult cg(Apply&& apply, std::span<const double> b,
               const SolveOptions& options) {
  const std::size_t n = b.size();
  SolveResult result;
  result.solution.assign(n, 0.0);
  std::vector<double> r(b.begin(), b.end());
  std::vector<double> p(r);
  std::vector<double> ap(n);

  double rho = sparse::dot(r, r);
  double rnorm = std::sqrt(rho);
  detail::Monitor monitor(options);
  long k = 0;
  if (options.record_trace) result.trace.push_back(rnorm);

  while (true) {
    if (const auto status = monitor.check(k, rnorm)) {
      result.status = *status;
      break;
    }
    ++k;
    apply(p, ap);
    const double p_ap = sparse::dot(p, ap);
    if (!std::isfinite(p_ap) || p_ap == 0.0) {
      result.status = SolveStatus::kBreakdown;
      break;
    }
    const double alpha = rho / p_ap;
    sparse::axpy(alpha, p, result.solution);
    sparse::axpy(-alpha, ap, r);
    const double rho_next = sparse::dot(r, r);
    rnorm = std::sqrt(rho_next);
    if (options.record_trace) result.trace.push_back(rnorm);
    sparse::xpby(r, rho_next / rho, p);
    rho = rho_next;
  }

  result.iterations = detail::reported_iterations(result.status, k);
  result.final_residual = rnorm;
  return result;
}

template <class Apply>
SolveResult bicgstab(Apply&& apply, std::span<const double> b,
                     const SolveOptions& options) {
  const std::size_t n = b.size();
  SolveResult result;
  result.solution.assign(n, 0.0);
  std::vector<double> r(b.begin(), b.end());
  std::vector<double> p(n, 0.0);
  std::vector<double> v(n, 0.0);
  std::vector<double> s(n);
  std::vector<double> t(n);

  double rho = 1.0;
  double alpha = 1.0;
  double omega = 1.0;
  double rnorm = sparse::norm2(r);
  detail::Monitor monitor(options);
  long k = 0;
  if (options.record_trace) result.trace.push_back(rnorm);

  // Restart bookkeeping: on inexact (quantized) operators the recursive
  // residual can detach from b - A x and blow up; recomputing it and
  // resetting the shadow vector is the standard rescue.
  std::vector<double> r_shadow(r);
  double best_since_restart = rnorm;
  int restarts = 0;
  constexpr int kMaxRestarts = 40;
  constexpr double kRestartGrowth = 100.0;

  while (true) {
    if (const auto status = monitor.check(k, rnorm)) {
      result.status = *status;
      break;
    }
    ++k;
    if (rnorm > kRestartGrowth * best_since_restart &&
        restarts < kMaxRestarts) {
      ++restarts;
      apply(result.solution, t);
      sparse::sub(b, t, r);
      r_shadow = r;
      std::fill(p.begin(), p.end(), 0.0);
      std::fill(v.begin(), v.end(), 0.0);
      rho = alpha = omega = 1.0;
      rnorm = sparse::norm2(r);
      best_since_restart = rnorm;
    }
    const double rho_next = sparse::dot(r_shadow, r);
    if (!std::isfinite(rho_next) || rho_next == 0.0) {
      result.status = SolveStatus::kBreakdown;
      break;
    }
    const double beta = (rho_next / rho) * (alpha / omega);
    // p = r + beta * (p - omega * v)
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = r[i] + beta * (p[i] - omega * v[i]);
    }
    apply(p, v);
    const double rhat_v = sparse::dot(r_shadow, v);
    if (!std::isfinite(rhat_v) || rhat_v == 0.0) {
      result.status = SolveStatus::kBreakdown;
      break;
    }
    alpha = rho_next / rhat_v;
    for (std::size_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];

    const double snorm = sparse::norm2(s);
    if (snorm <= options.tolerance) {
      sparse::axpy(alpha, p, result.solution);
      rnorm = snorm;
      if (options.record_trace) result.trace.push_back(rnorm);
      result.status = SolveStatus::kConverged;
      break;
    }
    apply(s, t);
    const double t_t = sparse::dot(t, t);
    if (!std::isfinite(t_t) || t_t == 0.0) {
      result.status = SolveStatus::kBreakdown;
      break;
    }
    omega = sparse::dot(t, s) / t_t;
    if (!std::isfinite(omega) || omega == 0.0) {
      result.status = SolveStatus::kBreakdown;
      break;
    }
    for (std::size_t i = 0; i < n; ++i) {
      result.solution[i] += alpha * p[i] + omega * s[i];
      r[i] = s[i] - omega * t[i];
    }
    rho = rho_next;
    rnorm = sparse::norm2(r);
    if (rnorm < best_since_restart) best_since_restart = rnorm;
    if (options.record_trace) result.trace.push_back(rnorm);
  }

  result.iterations = detail::reported_iterations(result.status, k);
  result.final_residual = rnorm;
  return result;
}

}  // namespace refloat::solve::reference

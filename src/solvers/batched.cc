#include "src/solvers/batched.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/solvers/monitor.h"
#include "src/sparse/vector_ops.h"
#include "src/util/random.h"

namespace refloat::solve {

BackendMultiOperator::BackendMultiOperator(core::SweepBackend& backend,
                                           std::size_t k, std::uint64_t seed)
    : backend_(backend), counters_(k, 0) {
  seeds_.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    seeds_[j] =
        j == 0 ? seed : util::stream_seed(seed, j, core::kColumnForkSalt);
  }
}

BackendMultiOperator::BackendMultiOperator(core::SweepBackend& backend,
                                           std::vector<std::uint64_t> seeds)
    : backend_(backend),
      seeds_(std::move(seeds)),
      counters_(seeds_.size(), 0) {}

void BackendMultiOperator::apply(std::span<const double> x, std::size_t k,
                                 std::span<double> y,
                                 std::span<const std::size_t> columns) {
  if (columns.size() != k) {
    throw std::invalid_argument("BackendMultiOperator: columns.size() != k");
  }
  // Pass each packed column its OWN (seed, application-count) identity:
  // the streams a solo solve of that column would be consuming right now.
  ctx_seeds_.resize(k);
  ctx_sequences_.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    ctx_seeds_[j] = seeds_.at(columns[j]);  // out_of_range past capacity
    ctx_sequences_[j] = counters_[columns[j]];
  }
  backend_.sweep(x, k, y,
                 {.seeds = ctx_seeds_,
                  .sequences = ctx_sequences_,
                  .verdict = &verdict_});
  for (std::size_t j = 0; j < k; ++j) ++counters_[columns[j]];
}

namespace {

// Per-column bookkeeping. The column's numeric state lives in the big
// column-major arrays; this tracks its scalars and lifecycle.
struct ColumnState {
  detail::Monitor monitor;
  SolveResult result;
  double rnorm = 0.0;
  bool done = false;

  explicit ColumnState(const SolveOptions& options) : monitor(options) {}
};

// What both lockstep drivers share: the argument checks, the per-column
// options and bookkeeping, the active set, the iterate x and residual r
// (k column-major vectors each), the batched applies and the final report.
struct Lockstep {
  MultiOperator& op;
  const std::size_t n;
  const SolveOptions& options;
  std::vector<SolveOptions> col_opts;  // the monitors' options, never resized
  std::vector<ColumnState> cols;
  std::vector<std::size_t> active;  // live columns, ascending
  std::vector<double> x;
  std::vector<double> r;
  std::vector<double> in_buf;
  std::vector<double> out_buf;
  BatchedSolveResult batch;

  // x = 0 and r = b, or — with a warm start — x = x0 and r = b - A x0 (one
  // extra batched apply).
  Lockstep(MultiOperator& op_in, std::span<const double> b, std::size_t k,
           const SolveOptions& options_in, std::span<const double> tolerances,
           std::span<const double> x0)
      : op(op_in),
        n(static_cast<std::size_t>(op_in.dim())),
        options(options_in),
        col_opts(k, options_in) {
    if (b.size() != k * n || (!tolerances.empty() && tolerances.size() != k) ||
        (!x0.empty() && x0.size() != k * n)) {
      throw std::invalid_argument(
          "lockstep solve: b, tolerances or x0 does not match k columns");
    }
    for (std::size_t c = 0; c < tolerances.size(); ++c) {
      col_opts[c].tolerance = tolerances[c];
    }
    cols.reserve(k);
    for (std::size_t c = 0; c < k; ++c) {
      cols.emplace_back(col_opts[c]);
      active.push_back(c);
    }
    x.assign(k * n, 0.0);
    r.assign(b.begin(), b.end());
    if (!x0.empty()) {
      std::copy(x0.begin(), x0.end(), x.begin());
      std::vector<double> ax(k * n, 0.0);
      apply(active, x, ax, 0);
      for (const std::size_t c : active) {
        sparse::sub(b.subspan(c * n, n), col(ax, c), col(r, c));
      }
    }
  }

  std::span<double> col(std::vector<double>& v, std::size_t c) const {
    return {v.data() + c * n, n};
  }
  std::span<const double> col(const std::vector<double>& v,
                              std::size_t c) const {
    return {v.data() + c * n, n};
  }

  void trace(std::size_t c) {
    if (options.record_trace) cols[c].result.trace.push_back(cols[c].rnorm);
  }

  void finalize(std::size_t c, SolveStatus status, long it) {
    ColumnState& state = cols[c];
    state.result.status = status;
    state.result.iterations = detail::reported_iterations(status, it);
    state.result.final_residual = state.rnorm;
    state.done = true;
  }

  void drop_done() {
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](std::size_t c) { return cols[c].done; }),
                 active.end());
  }

  // The residual check before iteration it + 1: finalizes every column its
  // monitor stops; true while any column is left to iterate.
  bool check(long it) {
    for (const std::size_t c : active) {
      if (const auto status = cols[c].monitor.check(it, cols[c].rnorm)) {
        finalize(c, *status, it);
      }
    }
    drop_done();
    return !active.empty();
  }

  // dst = A src over the `subset` columns (ascending) in ONE operator
  // apply. The packing copies move bits, not arithmetic, so column results
  // match single applies; `subset` travels along as the column ids, so
  // stochastic operators keep per-column stream identity through dropout.
  // Columns the ABFT verdict flags are finalized as kCorrupted and dropped
  // from the active set before anyone consumes their output — x still
  // holds their last-good iterate.
  void apply(const std::vector<std::size_t>& subset,
             const std::vector<double>& src, std::vector<double>& dst,
             long it) {
    const std::size_t ka = subset.size();
    if (ka == 0) return;
    // When the subset is every column the column-major arrays already ARE
    // the batch — skip the 2*k*n pack/scatter copies of the common case.
    const bool whole = ka * n == src.size();
    if (!whole) {
      in_buf.resize(ka * n);
      out_buf.resize(ka * n);
      for (std::size_t idx = 0; idx < ka; ++idx) {
        const auto from = col(src, subset[idx]);
        std::copy(from.begin(), from.end(), in_buf.begin() + idx * n);
      }
    }
    op.apply(whole ? src : in_buf, ka, whole ? dst : out_buf, subset);
    if (!whole) {
      for (std::size_t idx = 0; idx < ka; ++idx) {
        std::copy(out_buf.begin() + idx * n, out_buf.begin() + (idx + 1) * n,
                  col(dst, subset[idx]).begin());
      }
    }
    batch.batched_applies += 1;
    batch.column_applies += static_cast<long>(ka);
    const core::SweepVerdict* v = op.last_verdict();
    if (v != nullptr && v->checked && !v->ok) {
      for (const std::size_t packed : v->bad_columns) {
        if (packed < ka) finalize(subset[packed], SolveStatus::kCorrupted, it);
      }
    }
    drop_done();
  }

  // Every column's result, in order, plus the structured failure report:
  // each non-converged column with its status, terminal iteration, and
  // last residual known good (the monitor's best finite residual; the
  // final residual when nothing finite was ever checked).
  BatchedSolveResult finish() {
    for (std::size_t c = 0; c < cols.size(); ++c) {
      SolveResult& result = cols[c].result;
      if (result.status != SolveStatus::kConverged) {
        double last_good = cols[c].monitor.best_residual();
        if (!std::isfinite(last_good)) last_good = result.final_residual;
        batch.failures.push_back(ColumnFailure{
            .column = c,
            .status = result.status,
            .iteration = result.iterations,
            .last_good_residual = last_good,
        });
      }
      const auto xc = col(x, c);
      result.solution.assign(xc.begin(), xc.end());
      batch.columns.push_back(std::move(result));
    }
    return std::move(batch);
  }
};

}  // namespace

BatchedSolveResult cg_multi(MultiOperator& op, std::span<const double> b,
                            std::size_t k, const SolveOptions& options,
                            std::span<const double> tolerances,
                            std::span<const double> x0) {
  Lockstep ls(op, b, k, options, tolerances, x0);
  std::vector<double>& x = ls.x;
  std::vector<double>& r = ls.r;
  std::vector<double> p(r);
  std::vector<double> ap(k * ls.n, 0.0);
  std::vector<double> rho(k, 0.0);
  for (const std::size_t c : ls.active) {
    rho[c] = sparse::dot(ls.col(r, c), ls.col(r, c));
    ls.cols[c].rnorm = std::sqrt(rho[c]);
    ls.trace(c);
  }

  long it = 0;
  while (ls.check(it)) {
    ++it;
    // ONE SpMM for every column still iterating (the batched hot path).
    ls.apply(ls.active, p, ap, it);
    for (const std::size_t c : ls.active) {
      const auto pc = ls.col(p, c);
      const auto apc = ls.col(ap, c);
      const double p_ap = sparse::dot(pc, apc);
      if (!std::isfinite(p_ap) || p_ap == 0.0) {
        ls.finalize(c, SolveStatus::kBreakdown, it);
        continue;
      }
      const double alpha = rho[c] / p_ap;
      sparse::axpy(alpha, pc, ls.col(x, c));
      sparse::axpy(-alpha, apc, ls.col(r, c));
      const double rho_next = sparse::dot(ls.col(r, c), ls.col(r, c));
      ls.cols[c].rnorm = std::sqrt(rho_next);
      ls.trace(c);
      sparse::xpby(ls.col(r, c), rho_next / rho[c], pc);
      rho[c] = rho_next;
    }
    ls.drop_done();
  }
  return ls.finish();
}

BatchedSolveResult bicgstab_multi(MultiOperator& op,
                                  std::span<const double> b, std::size_t k,
                                  const SolveOptions& options,
                                  std::span<const double> tolerances,
                                  std::span<const double> x0) {
  Lockstep ls(op, b, k, options, tolerances, x0);
  const std::size_t n = ls.n;
  std::vector<double>& x = ls.x;
  std::vector<double>& r = ls.r;
  std::vector<ColumnState>& cols = ls.cols;
  std::vector<double> p(k * n, 0.0);
  std::vector<double> v(k * n, 0.0);
  std::vector<double> s(k * n, 0.0);
  std::vector<double> t(k * n, 0.0);
  std::vector<double> rho(k, 1.0);
  std::vector<double> alpha(k, 1.0);
  std::vector<double> omega(k, 1.0);
  std::vector<double> rho_next(k, 0.0);
  std::vector<double> best_since_restart(k, 0.0);
  std::vector<int> restarts(k, 0);
  constexpr int kMaxRestarts = 40;
  constexpr double kRestartGrowth = 100.0;
  std::vector<std::size_t> subset;

  std::vector<double> r_shadow(r);
  for (const std::size_t c : ls.active) {
    cols[c].rnorm = sparse::norm2(ls.col(r, c));
    best_since_restart[c] = cols[c].rnorm;
    ls.trace(c);
  }

  long it = 0;
  while (ls.check(it)) {
    ++it;

    // Restart rescue: recompute r = b - A x for the columns whose recursive
    // residual detached. All restarting columns share one SpMM.
    subset.clear();
    for (const std::size_t c : ls.active) {
      if (cols[c].rnorm > kRestartGrowth * best_since_restart[c] &&
          restarts[c] < kMaxRestarts) {
        subset.push_back(c);
      }
    }
    ls.apply(subset, x, t, it);
    for (const std::size_t c : subset) {
      if (cols[c].done) continue;  // restart apply flagged this column
      ++restarts[c];
      sparse::sub(b.subspan(c * n, n), ls.col(t, c), ls.col(r, c));
      const auto rc = ls.col(r, c);
      std::copy(rc.begin(), rc.end(), ls.col(r_shadow, c).begin());
      sparse::fill(ls.col(p, c), 0.0);
      sparse::fill(ls.col(v, c), 0.0);
      rho[c] = alpha[c] = omega[c] = 1.0;
      cols[c].rnorm = sparse::norm2(rc);
      best_since_restart[c] = cols[c].rnorm;
    }

    for (const std::size_t c : ls.active) {
      rho_next[c] = sparse::dot(ls.col(r_shadow, c), ls.col(r, c));
      if (!std::isfinite(rho_next[c]) || rho_next[c] == 0.0) {
        ls.finalize(c, SolveStatus::kBreakdown, it);
        continue;
      }
      const double beta = (rho_next[c] / rho[c]) * (alpha[c] / omega[c]);
      const auto rc = ls.col(r, c);
      const auto pc = ls.col(p, c);
      const auto vc = ls.col(v, c);
      for (std::size_t i = 0; i < n; ++i) {
        pc[i] = rc[i] + beta * (pc[i] - omega[c] * vc[i]);
      }
    }
    ls.drop_done();

    // First SpMM of the iteration proper: v = A p for all live columns.
    ls.apply(ls.active, p, v, it);
    for (const std::size_t c : ls.active) {
      const double rhat_v = sparse::dot(ls.col(r_shadow, c), ls.col(v, c));
      if (!std::isfinite(rhat_v) || rhat_v == 0.0) {
        ls.finalize(c, SolveStatus::kBreakdown, it);
        continue;
      }
      alpha[c] = rho_next[c] / rhat_v;
      const auto rc = ls.col(r, c);
      const auto vc = ls.col(v, c);
      const auto sc = ls.col(s, c);
      for (std::size_t i = 0; i < n; ++i) sc[i] = rc[i] - alpha[c] * vc[i];
      const double snorm = sparse::norm2(sc);
      if (snorm <= ls.col_opts[c].tolerance) {
        sparse::axpy(alpha[c], ls.col(p, c), ls.col(x, c));
        cols[c].rnorm = snorm;
        ls.trace(c);
        ls.finalize(c, SolveStatus::kConverged, it);
      }
    }
    ls.drop_done();

    // Second SpMM: t = A s for the columns that did not exit early.
    ls.apply(ls.active, s, t, it);
    for (const std::size_t c : ls.active) {
      const auto sc = ls.col(s, c);
      const auto tc = ls.col(t, c);
      const double t_t = sparse::dot(tc, tc);
      if (!std::isfinite(t_t) || t_t == 0.0) {
        ls.finalize(c, SolveStatus::kBreakdown, it);
        continue;
      }
      omega[c] = sparse::dot(tc, sc) / t_t;
      if (!std::isfinite(omega[c]) || omega[c] == 0.0) {
        ls.finalize(c, SolveStatus::kBreakdown, it);
        continue;
      }
      const auto xc = ls.col(x, c);
      const auto pc = ls.col(p, c);
      const auto rc = ls.col(r, c);
      const double a = alpha[c];
      const double w = omega[c];
      for (std::size_t i = 0; i < n; ++i) {
        xc[i] += a * pc[i] + w * sc[i];
        rc[i] = sc[i] - w * tc[i];
      }
      rho[c] = rho_next[c];
      cols[c].rnorm = sparse::norm2(rc);
      if (cols[c].rnorm < best_since_restart[c]) {
        best_since_restart[c] = cols[c].rnorm;
      }
      ls.trace(c);
    }
    ls.drop_done();
  }
  return ls.finish();
}

std::vector<double> make_rhs_batch(const sparse::Csr& a, std::size_t k,
                                   double norm) {
  const std::size_t n = static_cast<std::size_t>(a.rows());
  std::vector<double> b(k * n, 0.0);
  // Column 0 is exactly make_rhs(a, norm) so batched runs stay comparable
  // with every single-RHS record; later columns fork the seed per column.
  const std::uint64_t base_seed = rhs_seed(a);
  for (std::size_t j = 0; j < k; ++j) {
    if (j == 0) {
      const std::vector<double> b0 = make_rhs(a, norm);
      std::copy(b0.begin(), b0.end(), b.begin());
      continue;
    }
    util::Rng rng(util::stream_seed(base_seed, j, 0));
    const std::span<double> col(b.data() + j * n, n);
    for (double& v : col) v = rng.gaussian();
    const double n2 = sparse::norm2(col);
    if (n2 > 0.0) {
      for (double& v : col) v *= norm / n2;
    }
  }
  return b;
}

}  // namespace refloat::solve

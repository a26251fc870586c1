#include "src/solvers/batched.h"

#include <algorithm>
#include <array>
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
// interleaved arrays; this tracks its scalars and lifecycle.
struct ColumnState {
  detail::Monitor monitor;
  SolveResult result;
  double rnorm = 0.0;
  bool done = false;

  explicit ColumnState(const SolveOptions& options) : monitor(options) {}
};

// What both lockstep drivers share: the argument checks, the per-column
// options and bookkeeping, the active set, the iterate x and residual r,
// the batched applies and the final report.
//
// Every k-column array is row-major interleaved — slot i*k + c holds
// element i of column c — the layout MultiOperator::apply takes, so an
// apply of every column hands the arrays over as they are. The vector ops
// walk the live columns row by row (for_lanes): each column's reduction
// still adds its terms in ascending i, exactly as the serial dot, while
// the k columns' running sums are independent and sit side by side.
struct Lockstep {
  MultiOperator& op;
  const std::size_t n;
  const std::size_t k;
  const SolveOptions& options;
  const std::span<const double> b;  // column-major, as given
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
  Lockstep(MultiOperator& op_in, std::span<const double> b_in, std::size_t k_in,
           const SolveOptions& options_in, std::span<const double> tolerances,
           std::span<const double> x0)
      : op(op_in),
        n(static_cast<std::size_t>(op_in.dim())),
        k(k_in),
        options(options_in),
        b(b_in),
        col_opts(k_in, options_in) {
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
    load(b, r);
    if (x0.empty()) {
      x.assign(k * n, 0.0);
    } else {
      load(x0, x);
      std::vector<double> ax(k * n, 0.0);
      apply(active, x, ax, 0);
      for_lanes(active, [&](std::size_t q, std::size_t c) {
        r[q] = rhs(q / k, c) - ax[q];
      });
    }
  }

  // Copies k column-major vectors into an interleaved array.
  void load(std::span<const double> src, std::vector<double>& dst) const {
    if (k == 1) {
      dst.assign(src.begin(), src.end());
      return;
    }
    dst.resize(k * n);
    for (std::size_t c = 0; c < k; ++c) {
      for (std::size_t i = 0; i < n; ++i) dst[i * k + c] = src[c * n + i];
    }
  }

  // Element i of right-hand side c.
  double rhs(std::size_t i, std::size_t c) const { return b[c * n + i]; }

  // Row-major walks over the live columns (ascending) of the interleaved
  // state: body(q, c) handles slot q = i*k + c of column c. reduce_lanes
  // visits rows in ascending i and adds what body returns
  // (std::array<double, R>) into column c's R running sums, each starting
  // at +0.0 — so every sum takes its terms in ascending i, the serial dot's
  // order — and stores them to sums[r][c]. When every column is live and k
  // is 1, 2, 4, 8 or 16, the column loop has a compile-time trip count and
  // the running sums are a local array, which the compiler keeps out of
  // memory and vectorizes across columns. An empty column list returns at
  // once (BiCGSTAB's restart and early-exit passes, most iterations).
  //
  // for_lanes is the walk without sums, for the update passes, whose slots
  // are independent: it visits rows in DESCENDING i, so a pass that
  // follows an ascending reduction starts on the rows that pass left in
  // cache (a k-column array outgrows L2 at solver sizes).
  template <typename Body>
  void for_lanes(const std::vector<std::size_t>& live, Body&& body) const {
    if (live.empty()) return;
    if (live.size() == k) {
      switch (k) {
        case 1: return update_fixed<1>(body);
        case 2: return update_fixed<2>(body);
        case 4: return update_fixed<4>(body);
        case 8: return update_fixed<8>(body);
        case 16: return update_fixed<16>(body);
        default: break;
      }
    }
    for (std::size_t i = n; i-- > 0;) {
      for (const std::size_t c : live) body(i * k + c, c);
    }
  }

  template <std::size_t K, typename Body>
  void update_fixed(Body& body) const {
    for (std::size_t i = n; i-- > 0;) {
      for (std::size_t c = 0; c < K; ++c) body(i * K + c, c);
    }
  }

  template <std::size_t R, typename Body>
  void reduce_lanes(const std::vector<std::size_t>& live,
                    std::array<double*, R> sums, Body&& body) const {
    if (live.empty()) return;
    if (live.size() == k) {
      switch (k) {
        case 1: return reduce_fixed<1>(sums, body);
        case 2: return reduce_fixed<2>(sums, body);
        case 4: return reduce_fixed<4>(sums, body);
        case 8: return reduce_fixed<8>(sums, body);
        case 16: return reduce_fixed<16>(sums, body);
        default: break;
      }
    }
    for (const std::size_t c : live) {
      for (std::size_t j = 0; j < R; ++j) sums[j][c] = 0.0;
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (const std::size_t c : live) {
        const std::array<double, R> terms = body(i * k + c, c);
        for (std::size_t j = 0; j < R; ++j) sums[j][c] += terms[j];
      }
    }
  }

  template <std::size_t K, std::size_t R, typename Body>
  void reduce_fixed(std::array<double*, R> sums, Body& body) const {
    double acc[R][K] = {};
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < K; ++c) {
        const std::array<double, R> terms = body(i * K + c, c);
        for (std::size_t j = 0; j < R; ++j) acc[j][c] += terms[j];
      }
    }
    for (std::size_t j = 0; j < R; ++j) {
      for (std::size_t c = 0; c < K; ++c) sums[j][c] = acc[j][c];
    }
  }

  // out[c] = a_c · b_c for every column c of `live` — sparse::dot's sum.
  void dots(const std::vector<std::size_t>& live, const std::vector<double>& a,
            const std::vector<double>& b2, std::vector<double>& out) const {
    reduce_lanes<1>(live, {out.data()}, [&](std::size_t q, std::size_t) {
      return std::array<double, 1>{a[q] * b2[q]};
    });
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
  // apply. When the subset is every column the arrays already ARE the
  // batch; otherwise its columns are packed row by row into a ka-column
  // interleaved batch and the result unpacked — copies that move bits, not
  // arithmetic, so column results match single applies. `subset` travels
  // along as the column ids, so stochastic operators keep per-column stream
  // identity through dropout. Columns the ABFT verdict flags are finalized
  // as kCorrupted and dropped from the active set before anyone consumes
  // their output — x still holds their last-good iterate.
  void apply(const std::vector<std::size_t>& subset,
             const std::vector<double>& src, std::vector<double>& dst,
             long it) {
    const std::size_t ka = subset.size();
    if (ka == 0) return;
    if (ka == k) {
      op.apply(src, k, dst, subset);
    } else {
      in_buf.resize(ka * n);
      out_buf.resize(ka * n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t idx = 0; idx < ka; ++idx) {
          in_buf[i * ka + idx] = src[i * k + subset[idx]];
        }
      }
      op.apply(in_buf, ka, out_buf, subset);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t idx = 0; idx < ka; ++idx) {
          dst[i * k + subset[idx]] = out_buf[i * ka + idx];
        }
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
      result.solution.resize(n);
      for (std::size_t i = 0; i < n; ++i) result.solution[i] = x[i * k + c];
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
  std::vector<double> p_ap(k, 0.0);
  std::vector<double> alpha(k, 0.0);
  std::vector<double> neg_alpha(k, 0.0);
  std::vector<double> rho_next(k, 0.0);
  std::vector<double> beta(k, 0.0);
  std::vector<std::size_t> live;
  ls.dots(ls.active, r, r, rho);
  for (const std::size_t c : ls.active) {
    ls.cols[c].rnorm = std::sqrt(rho[c]);
    ls.trace(c);
  }

  long it = 0;
  while (ls.check(it)) {
    ++it;
    // ONE SpMM for every column still iterating (the batched hot path).
    ls.apply(ls.active, p, ap, it);
    ls.dots(ls.active, p, ap, p_ap);
    live.clear();
    for (const std::size_t c : ls.active) {
      if (!std::isfinite(p_ap[c]) || p_ap[c] == 0.0) {
        ls.finalize(c, SolveStatus::kBreakdown, it);
        continue;
      }
      alpha[c] = rho[c] / p_ap[c];
      neg_alpha[c] = -alpha[c];
      live.push_back(c);
    }
    // One pass: x += alpha p, r -= alpha Ap and r·r.
    ls.reduce_lanes<1>(live, {rho_next.data()},
                       [&](std::size_t q, std::size_t c) {
                         x[q] += alpha[c] * p[q];
                         r[q] += neg_alpha[c] * ap[q];
                         return std::array<double, 1>{r[q] * r[q]};
                       });
    for (const std::size_t c : live) {
      ls.cols[c].rnorm = std::sqrt(rho_next[c]);
      ls.trace(c);
      beta[c] = rho_next[c] / rho[c];
      rho[c] = rho_next[c];
    }
    ls.for_lanes(live, [&](std::size_t q, std::size_t c) {
      p[q] = r[q] + beta[c] * p[q];
    });
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
  std::vector<double> beta(k, 0.0);
  std::vector<double> dot_a(k, 0.0);
  std::vector<double> dot_b(k, 0.0);
  std::vector<double> best_since_restart(k, 0.0);
  std::vector<int> restarts(k, 0);
  constexpr int kMaxRestarts = 40;
  constexpr double kRestartGrowth = 100.0;
  std::vector<std::size_t> subset;
  std::vector<std::size_t> live;

  std::vector<double> r_shadow(r);
  ls.dots(ls.active, r, r, dot_a);
  for (const std::size_t c : ls.active) {
    cols[c].rnorm = std::sqrt(dot_a[c]);
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
    live.clear();
    for (const std::size_t c : subset) {
      if (cols[c].done) continue;  // restart apply flagged this column
      ++restarts[c];
      rho[c] = alpha[c] = omega[c] = 1.0;
      live.push_back(c);
    }
    ls.reduce_lanes<1>(live, {dot_a.data()},
                       [&](std::size_t q, std::size_t c) {
                         r[q] = ls.rhs(q / k, c) - t[q];
                         r_shadow[q] = r[q];
                         p[q] = 0.0;
                         v[q] = 0.0;
                         return std::array<double, 1>{r[q] * r[q]};
                       });
    for (const std::size_t c : live) {
      cols[c].rnorm = std::sqrt(dot_a[c]);
      best_since_restart[c] = cols[c].rnorm;
    }

    ls.dots(ls.active, r_shadow, r, rho_next);
    live.clear();
    for (const std::size_t c : ls.active) {
      if (!std::isfinite(rho_next[c]) || rho_next[c] == 0.0) {
        ls.finalize(c, SolveStatus::kBreakdown, it);
        continue;
      }
      beta[c] = (rho_next[c] / rho[c]) * (alpha[c] / omega[c]);
      live.push_back(c);
    }
    ls.for_lanes(live, [&](std::size_t q, std::size_t c) {
      p[q] = r[q] + beta[c] * (p[q] - omega[c] * v[q]);
    });
    ls.drop_done();

    // First SpMM of the iteration proper: v = A p for all live columns.
    ls.apply(ls.active, p, v, it);
    ls.dots(ls.active, r_shadow, v, dot_a);
    live.clear();
    for (const std::size_t c : ls.active) {
      if (!std::isfinite(dot_a[c]) || dot_a[c] == 0.0) {
        ls.finalize(c, SolveStatus::kBreakdown, it);
        continue;
      }
      alpha[c] = rho_next[c] / dot_a[c];
      live.push_back(c);
    }
    // One pass: s = r - alpha v and s·s.
    ls.reduce_lanes<1>(live, {dot_b.data()},
                       [&](std::size_t q, std::size_t c) {
                         s[q] = r[q] - alpha[c] * v[q];
                         return std::array<double, 1>{s[q] * s[q]};
                       });
    subset.clear();  // the columns that exit early on ||s||
    for (const std::size_t c : live) {
      const double snorm = std::sqrt(dot_b[c]);
      if (snorm <= ls.col_opts[c].tolerance) {
        cols[c].rnorm = snorm;
        subset.push_back(c);
      }
    }
    ls.for_lanes(subset, [&](std::size_t q, std::size_t c) {
      x[q] += alpha[c] * p[q];
    });
    for (const std::size_t c : subset) {
      ls.trace(c);
      ls.finalize(c, SolveStatus::kConverged, it);
    }
    ls.drop_done();

    // Second SpMM: t = A s for the columns that did not exit early.
    ls.apply(ls.active, s, t, it);
    ls.reduce_lanes<2>(ls.active, {dot_a.data(), dot_b.data()},
                       [&](std::size_t q, std::size_t) {
                         return std::array<double, 2>{t[q] * t[q],
                                                      t[q] * s[q]};
                       });
    live.clear();
    for (const std::size_t c : ls.active) {
      const double t_t = dot_a[c];
      if (!std::isfinite(t_t) || t_t == 0.0) {
        ls.finalize(c, SolveStatus::kBreakdown, it);
        continue;
      }
      omega[c] = dot_b[c] / t_t;
      if (!std::isfinite(omega[c]) || omega[c] == 0.0) {
        ls.finalize(c, SolveStatus::kBreakdown, it);
        continue;
      }
      live.push_back(c);
    }
    // One pass: x += alpha p + omega s, r = s - omega t and r·r.
    ls.reduce_lanes<1>(live, {dot_a.data()},
                       [&](std::size_t q, std::size_t c) {
                         x[q] += alpha[c] * p[q] + omega[c] * s[q];
                         r[q] = s[q] - omega[c] * t[q];
                         return std::array<double, 1>{r[q] * r[q]};
                       });
    for (const std::size_t c : live) {
      rho[c] = rho_next[c];
      cols[c].rnorm = std::sqrt(dot_a[c]);
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

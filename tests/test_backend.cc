// The SweepBackend contract (docs/ARCHITECTURE.md "Execution backends"):
// every view reproduces an independent serial reference (a test-local row
// loop for value, a test-local RTN draw loop for noisy; bit-true's default
// noise-base stream is pinned on a bare HwSpmv image, and its datapath to
// the value backend in test_hw), and column j of a k-RHS sweep or solve is bit-identical to a
// solo run of that column — at any thread count, any tile split, and
// through converged-column dropout. These are the pins that let the
// solvers and the serving layer treat value / noisy / bit-true as one
// interface. This TU is compiled with -ffp-contract=off like the kernels,
// so the reference loops round mul-then-add exactly as they do.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "src/core/refloat_matrix.h"
#include "src/core/sweep_backend.h"
#include "src/core/tiled_plan.h"
#include "src/gen/grid.h"
#include "src/gen/suite.h"
#include "src/hw/bit_true_backend.h"
#include "src/hw/hw_spmv.h"
#include "src/solvers/batched.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"
#include "tests/reference_solvers.h"

namespace refloat {
namespace {

sparse::Csr test_matrix() {
  return gen::build_stencil(gen::laplace2d_5pt(16, 12)).shifted(0.15);
}

core::Format test_format() {
  core::Format fmt = core::default_format();
  fmt.b = 4;
  return fmt;
}

std::vector<double> test_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> x(n);
  util::Rng rng(seed);
  for (double& v : x) v = rng.gaussian();
  return x;
}

// The noisy references' matrix: a 13-wide grid, so at b = 4 the rows of a
// block-row reach their off-diagonal neighbours in different blocks and
// many per-block row partials are zero; 195 rows leave a ragged last band.
sparse::Csr noisy_test_matrix() {
  return gen::build_stencil(gen::laplace2d_5pt(13, 15)).shifted(0.15);
}

// noisy_test_matrix() with grid block-row 2 (rows 32..47 at b = 4) emptied.
sparse::Csr matrix_with_empty_band() {
  const sparse::Csr a = noisy_test_matrix();
  std::vector<sparse::Triplet> triplets;
  for (sparse::Index r = 0; r < a.rows(); ++r) {
    if (r >= 32 && r < 48) continue;
    const auto ru = static_cast<std::size_t>(r);
    for (auto e = a.row_ptr()[ru]; e < a.row_ptr()[ru + 1]; ++e) {
      const auto eu = static_cast<std::size_t>(e);
      triplets.push_back({r, a.col_idx()[eu], a.values()[eu]});
    }
  }
  return sparse::Csr::from_triplets(a.rows(), a.cols(), std::move(triplets));
}

// A windowed-shuffle scattered operand (the thermomech shape): a 16^3
// 7-point Laplacian under a symmetric permutation that shuffles indices
// within windows of n/2, so at b = 3 and 4 a nonzero block holds 1-2
// entries and a band's runs spread over many block columns.
sparse::Csr scattered_test_matrix() {
  gen::SuiteSpec spec;
  spec.name = "scattered12";
  spec.kind = gen::MatrixKind::kScattered3d7;
  spec.nx = spec.ny = spec.nz = 16;
  spec.seed = 17;
  spec.paper_kappa = 100.0;
  return gen::build(spec);
}

// Row r holds its diagonal, a pair (+0.5, -0.5) at columns (p, p + 1) with
// p even, and a pair (0.5, -0.25) at (q, q + 1). Under an operand with
// x[2i] == x[2i + 1] the first pair's run sums to exactly +0.0 and must
// draw nothing, while the run beside it draws. 100 rows leave a ragged
// last band at b = 3 and 4.
sparse::Csr cancelling_matrix() {
  constexpr sparse::Index n = 100;
  std::vector<sparse::Triplet> triplets;
  for (sparse::Index r = 0; r < n; ++r) {
    triplets.push_back({r, r, 4.0 + 0.01 * static_cast<double>(r)});
    const sparse::Index p = 2 * ((5 * r + 3) % (n / 2));
    const sparse::Index q = 2 * ((11 * r + 7) % (n / 2));
    const auto clear = [r](sparse::Index c) { return r != c && r != c + 1; };
    if (clear(p)) {
      triplets.push_back({r, p, 0.5});
      triplets.push_back({r, p + 1, -0.5});
    }
    if (clear(q) && q != p) {
      triplets.push_back({r, q, 0.5});
      triplets.push_back({r, q + 1, -0.25});
    }
  }
  return sparse::Csr::from_triplets(n, n, std::move(triplets));
}

// Runs of rf's operand (a row's entries sharing col >> b) whose partial
// under the quantized x is exactly zero.
std::size_t zero_runs(const core::RefloatMatrix& rf,
                      std::span<const double> x) {
  const sparse::Csr q = rf.quantized().to_csr();
  std::vector<double> xq(x.size());
  rf.quantize_vector(x, xq);
  const int b = rf.format().b;
  std::size_t zeros = 0;
  for (std::size_t r = 0; r < static_cast<std::size_t>(q.rows()); ++r) {
    auto e = static_cast<std::size_t>(q.row_ptr()[r]);
    const auto end = static_cast<std::size_t>(q.row_ptr()[r + 1]);
    while (e < end) {
      const sparse::Index block = q.col_idx()[e] >> b;
      double partial = 0.0;
      for (; e < end && (q.col_idx()[e] >> b) == block; ++e) {
        partial += q.values()[e] * xq[static_cast<std::size_t>(q.col_idx()[e])];
      }
      zeros += partial == 0.0 ? 1 : 0;
    }
  }
  return zeros;
}

// Value-view reference: quantize x, then one ascending-column sum per row
// of the dequantized CSR.
std::vector<double> reference_value(const core::RefloatMatrix& rf,
                                    std::span<const double> x) {
  const sparse::Csr q = rf.quantized().to_csr();
  std::vector<double> xq(x.size());
  rf.quantize_vector(x, xq);
  std::vector<double> y(static_cast<std::size_t>(q.rows()));
  for (std::size_t r = 0; r < y.size(); ++r) {
    double sum = 0.0;
    for (auto e = q.row_ptr()[r]; e < q.row_ptr()[r + 1]; ++e) {
      const auto eu = static_cast<std::size_t>(e);
      sum += q.values()[eu] * xq[static_cast<std::size_t>(q.col_idx()[eu])];
    }
    y[r] = sum;
  }
  return y;
}

// Noisy-view reference (Fig. 10 RTN), written from the model rather than
// from the kernel: per grid block-row br one Rng(stream_seed(seed,
// sequence, br)); blocks visited in (block-row, block-column) order and
// rows within a block in order; a row's per-block partial sums its entries
// in that block in ascending column order; a zero partial draws nothing;
// y += partial * (1 + sigma * gaussian()). Scalar formats (b = 0) have no
// block grid: the exact product, then one stream per sweep scaling every
// row.
std::vector<double> reference_noisy(const core::RefloatMatrix& rf,
                                    std::span<const double> x, double sigma,
                                    std::uint64_t seed,
                                    std::uint64_t sequence) {
  const sparse::Csr q = rf.quantized().to_csr();
  const auto rows = static_cast<std::size_t>(q.rows());
  const auto cols = static_cast<std::size_t>(q.cols());
  std::vector<double> xq(x.size());
  rf.quantize_vector(x, xq);
  std::vector<double> y(rows, 0.0);
  if (rf.format().b == 0) {
    q.spmv(xq, y);
    util::Rng rng(util::stream_seed(seed, sequence, 0));
    for (double& v : y) v *= 1.0 + sigma * rng.gaussian();
    return y;
  }
  const std::size_t side = std::size_t{1} << rf.format().b;
  const std::span<const sparse::Index> row_ptr = q.row_ptr();
  const std::span<const sparse::Index> col_idx = q.col_idx();
  const std::span<const double> values = q.values();
  for (std::size_t br = 0; br * side < rows; ++br) {
    util::Rng rng(util::stream_seed(seed, sequence, br));
    const std::size_t r_end = std::min(rows, (br + 1) * side);
    // Per row, the first entry not yet consumed by an earlier block.
    std::vector<std::size_t> next(r_end - br * side);
    for (std::size_t r = br * side; r < r_end; ++r) {
      next[r - br * side] = static_cast<std::size_t>(row_ptr[r]);
    }
    for (std::size_t c_end = side; c_end - side < cols; c_end += side) {
      for (std::size_t r = br * side; r < r_end; ++r) {
        std::size_t& e = next[r - br * side];
        double partial = 0.0;
        for (; e < static_cast<std::size_t>(row_ptr[r + 1]) &&
               static_cast<std::size_t>(col_idx[e]) < c_end;
             ++e) {
          partial += values[e] * xq[static_cast<std::size_t>(col_idx[e])];
        }
        if (partial == 0.0) continue;
        y[r] += partial * (1.0 + sigma * rng.gaussian());
      }
    }
  }
  return y;
}

TEST(SweepBackend, KindNamesRoundTrip) {
  using core::BackendKind;
  for (BackendKind kind : {BackendKind::kValue, BackendKind::kNoisy,
                           BackendKind::kBitTrue}) {
    BackendKind parsed = BackendKind::kValue;
    ASSERT_TRUE(core::parse_backend_kind(core::backend_kind_name(kind),
                                         &parsed));
    EXPECT_EQ(parsed, kind);
  }
  BackendKind unchanged = BackendKind::kNoisy;
  EXPECT_FALSE(core::parse_backend_kind("quantum", &unchanged));
  EXPECT_EQ(unchanged, core::BackendKind::kNoisy);
}

TEST(SweepBackend, ValueK1BitIdenticalToRowReference) {
  util::ThreadPool::set_global_threads(2);
  const sparse::Csr a = test_matrix();
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> x = test_vector(n, 7);

  const std::vector<double> want = reference_value(rf, x);

  for (int tiles : {1, 4}) {
    auto backend = core::make_value_backend(rf, tiles);
    EXPECT_EQ(backend->kind(), core::BackendKind::kValue);
    std::vector<double> got(n);
    backend->sweep(x, 1, got, {});
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], want[i]) << "tiles " << tiles << " row " << i;
    }
  }
}

TEST(SweepBackend, NoisyMatchesSerialReference) {
  // Every column of every noisy sweep reproduces reference_noisy under its
  // explicit (seed, sequence) identity, bit for bit: k = 1 / 2 / 3 / 4 / 8
  // / 16, untiled and 4 tiles, 1 / 2 / 8 threads. The operands cover a
  // blocked and a scalar format; an empty band; a scattered operand at
  // b = 3 / 4 / 7; runs that cancel to zero; and the fp64 value code with a
  // ragged last band. At k > 1, column 1's leading operand segments (at
  // least 64 entries, at most half) are signed zeros, so its zero skips
  // differ from the other columns'.
  const double sigma = 5e-2;
  const sparse::Csr stencil = noisy_test_matrix();
  const sparse::Csr banded = matrix_with_empty_band();
  const sparse::Csr scattered = scattered_test_matrix();
  const sparse::Csr cancelling = cancelling_matrix();
  const auto with_b = [](int b) {
    core::Format fmt = core::default_format();
    fmt.b = b;
    return fmt;
  };
  const core::Format wide{.b = 4, .e = 7, .f = 30, .ev = 7, .fv = 30};
  struct Case {
    const char* name;
    const sparse::Csr* a;
    core::Format fmt;
    bool paired_x = false;  // x[2i + 1] = x[2i]
  };
  const Case cases[] = {{"b=4", &stencil, test_format()},
                        {"fp32", &stencil, core::format_fp32()},
                        {"empty band", &banded, test_format()},
                        {"scattered, b=3", &scattered, with_b(3)},
                        {"scattered, b=4", &scattered, with_b(4)},
                        {"scattered, b=7", &scattered, with_b(7)},
                        {"cancelling, b=3", &cancelling, with_b(3), true},
                        {"cancelling, b=4", &cancelling, with_b(4), true},
                        {"fp64 code, ragged", &stencil, wide}};
  for (const Case& c : cases) {
    const core::RefloatMatrix rf(*c.a, c.fmt);
    const std::size_t n = static_cast<std::size_t>(c.a->rows());
    if (c.a == &scattered && c.fmt.b < 7) {
      ASSERT_LE(rf.quantized().nnz(), 2 * static_cast<sparse::Index>(
                                              rf.nonzero_blocks()))
          << c.name;
    }
    if (c.fmt.f == wide.f) {
      ASSERT_EQ(rf.quantized().code(), sparse::ValueCode::kFp64);
      ASSERT_NE(n % (std::size_t{1} << c.fmt.b), 0u);
    }
    for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                                std::size_t{3}, std::size_t{4},
                                std::size_t{8}, std::size_t{16}}) {
      std::vector<double> x = test_vector(n * k, 60 + k);
      if (c.paired_x) {
        for (std::size_t i = 1; i < x.size(); i += 2) x[i] = x[i - 1];
      }
      if (k > 1) {
        const std::size_t zeros =
            std::min(n / 2, std::max<std::size_t>(64, std::size_t{1} << c.fmt.b));
        for (std::size_t i = 0; i < zeros; ++i) {
          x[n + i] = i % 2 == 0 ? 0.0 : -0.0;
        }
      }
      if (c.paired_x) {
        ASSERT_GT(zero_runs(rf, std::span<const double>(x).first(n)), 0u);
      }
      std::vector<std::uint64_t> seeds(k), sequences(k);
      std::vector<double> want(n * k);
      for (std::size_t j = 0; j < k; ++j) {
        seeds[j] = 1000 + 7 * j;
        sequences[j] = 3 + j;
        const std::vector<double> col = reference_noisy(
            rf, std::span<const double>(x).subspan(j * n, n), sigma,
            seeds[j], sequences[j]);
        std::copy(col.begin(), col.end(), want.begin() + j * n);
      }
      const core::SweepContext ctx{.seeds = seeds, .sequences = sequences};
      for (const int threads : {1, 2, 8}) {
        for (const int tiles : {1, 4}) {
          util::ThreadPool::set_global_threads(threads);
          auto backend = core::make_noisy_backend(rf, sigma, 5, tiles);
          std::vector<double> got(n * k);
          backend->sweep(x, k, got, ctx);
          for (std::size_t i = 0; i < n * k; ++i) {
            ASSERT_EQ(got[i], want[i])
                << c.name << ", k " << k << ", " << threads << " threads, "
                << tiles << " tiles, slot " << i;
          }
        }
      }
    }
  }
  util::ThreadPool::set_global_threads(1);
}

TEST(SweepBackend, NoisyDefaultContextStreams) {
  // With an empty context, sweep number s draws (seed, sequence = s) for
  // column 0 — whatever k the earlier sweeps had — and column j > 0 forks
  // the seed by kColumnForkSalt.
  util::ThreadPool::set_global_threads(2);
  const sparse::Csr a = noisy_test_matrix();
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const double sigma = 1e-2;
  const std::uint64_t seed = 99;

  auto backend = core::make_noisy_backend(rf, sigma, seed);
  std::uint64_t sequence = 0;
  for (const std::size_t k : {std::size_t{1}, std::size_t{3},
                              std::size_t{1}, std::size_t{2}}) {
    const std::vector<double> x = test_vector(n * k, 8 + sequence);
    std::vector<double> got(n * k);
    backend->sweep(x, k, got, {});
    for (std::size_t j = 0; j < k; ++j) {
      const std::uint64_t seed_j =
          j == 0 ? seed : util::stream_seed(seed, j, core::kColumnForkSalt);
      const std::vector<double> want = reference_noisy(
          rf, std::span<const double>(x).subspan(j * n, n), sigma, seed_j,
          sequence);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[j * n + i], want[i])
            << "sweep " << sequence << ", column " << j << ", row " << i;
      }
    }
    ++sequence;
  }
  util::ThreadPool::set_global_threads(1);
}

TEST(SweepBackend, BitTrueDefaultContextDrawsOneBasePerSweep) {
  util::ThreadPool::set_global_threads(2);
  const sparse::Csr a = test_matrix();
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::vector<double> x = test_vector(n, 9);

  hw::ClusterConfig config;
  config.faults.stuck_at_zero_rate = 5e-2;
  config.noise.sigma = 1e-2;
  const std::uint64_t seed = 0x515;

  // The empty-context stream the bit-true benches rely on: sweep s takes
  // the s-th next() of one Rng(seed) as its noise base.
  hw::HwSpmv image(rf, config);  // same fault seed -> same population
  util::Rng base_rng(seed);
  std::vector<double> want(n);

  auto backend = hw::make_bit_true_backend(rf, config, seed);
  std::vector<double> got(n);
  for (int sweep = 0; sweep < 3; ++sweep) {
    const std::uint64_t base = base_rng.next();
    image.apply_multi(x, 1, want, {&base, 1});
    backend->sweep(x, 1, got, {});
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], want[i]) << "sweep " << sweep << " row " << i;
    }
  }
}

TEST(SweepBackend, BatchedNoisySolveMatchesSoloAtAnyThreadsAndTiles) {
  // The tentpole determinism pin: column j of a k-RHS noisy solve is
  // bit-identical to the solo solve with that column's forked seed, at
  // 1/2/8 threads x 1/4 tiles.
  const sparse::Csr a = test_matrix();
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t k = 3;
  const double sigma = 1e-3;
  const std::uint64_t seed = 0xfeedULL;
  std::vector<double> b = solve::make_rhs_batch(a, k);
  // Desynchronize convergence so dropout re-packs the active columns.
  for (std::size_t i = 0; i < n; ++i) b[n + i] *= 30.0;

  solve::SolveOptions opts;
  opts.tolerance = 1e-6;
  opts.max_iterations = 2000;

  // Serial reference solves, untiled at one thread, each sweeping the
  // default context of a backend built with the per-column seed
  // BackendMultiOperator forks from `seed`.
  util::ThreadPool::set_global_threads(1);
  std::vector<solve::SolveResult> solo;
  for (std::size_t j = 0; j < k; ++j) {
    const std::uint64_t seed_j =
        j == 0 ? seed : util::stream_seed(seed, j, core::kColumnForkSalt);
    auto solo_backend = core::make_noisy_backend(rf, sigma, seed_j, 1);
    solo.push_back(solve::reference::cg(
        solve::reference::default_sweep(*solo_backend),
        std::span<const double>(b).subspan(j * n, n), opts));
  }
  ASSERT_NE(solo[0].iterations, solo[1].iterations);

  for (int threads : {1, 2, 8}) {
    for (int tiles : {1, 4}) {
      util::ThreadPool::set_global_threads(threads);
      auto backend = core::make_noisy_backend(rf, sigma, seed, tiles);
      solve::BackendMultiOperator multi(*backend, k, seed);
      const solve::BatchedSolveResult batch =
          solve::cg_multi(multi, b, k, opts);
      ASSERT_EQ(batch.columns.size(), k);
      for (std::size_t j = 0; j < k; ++j) {
        const solve::SolveResult& got = batch.columns[j];
        const solve::SolveResult& want = solo[j];
        ASSERT_EQ(got.status, want.status)
            << threads << " threads, " << tiles << " tiles, column " << j;
        ASSERT_EQ(got.iterations, want.iterations)
            << threads << " threads, " << tiles << " tiles, column " << j;
        ASSERT_EQ(got.final_residual, want.final_residual)
            << threads << " threads, " << tiles << " tiles, column " << j;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got.solution[i], want.solution[i])
              << threads << " threads, " << tiles << " tiles, column " << j
              << " row " << i;
        }
      }
    }
  }
  util::ThreadPool::set_global_threads(1);
}

TEST(HwSpmvBatched, ApplyMultiBitIdenticalToSequentialSameFaultSeed) {
  // One programming pass serves all k columns: apply_multi on one HwSpmv
  // must equal k solo applies against a SECOND HwSpmv built with the same
  // fault seed (the sequential-programming baseline), column by column,
  // bit for bit — including the per-column noise streams.
  util::ThreadPool::set_global_threads(2);
  const sparse::Csr a = test_matrix();
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t k = 4;

  hw::ClusterConfig config;
  config.faults.stuck_at_zero_rate = 3e-2;
  config.faults.stuck_at_one_rate = 1e-2;
  config.noise.sigma = 5e-3;

  hw::HwSpmv batched(rf, config);
  hw::HwSpmv sequential(rf, config);  // same fault seed -> same population

  std::vector<double> x(k * n), want(k * n), got(k * n);
  std::vector<std::uint64_t> bases(k);
  for (std::size_t j = 0; j < k; ++j) {
    const std::vector<double> xj = test_vector(n, 40 + j);
    std::copy(xj.begin(), xj.end(), x.begin() + static_cast<long>(j * n));
    util::Rng rng(1000 + j);
    bases[j] = rng.next();
    std::vector<double> yj(n);
    sequential.apply_multi(xj, 1, yj, {&bases[j], 1});
    std::copy(yj.begin(), yj.end(), want.begin() + static_cast<long>(j * n));
  }

  batched.apply_multi(x, k, got, bases);
  for (std::size_t i = 0; i < k * n; ++i) {
    ASSERT_EQ(got[i], want[i]) << "slot " << i;
  }
}

TEST(SweepBackend, BatchedBitTrueSolveMatchesSoloSolve) {
  // The serving path end to end: a batched bit-true solve through
  // BackendMultiOperator reproduces each column's serial reference solve
  // (same programmed image, per-column noise identities).
  util::ThreadPool::set_global_threads(2);
  const sparse::Csr a = test_matrix();
  const core::RefloatMatrix rf(a, test_format());
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t k = 2;
  std::vector<double> b = solve::make_rhs_batch(a, k);

  solve::SolveOptions opts;
  opts.tolerance = 1e-6;
  opts.max_iterations = 2000;

  hw::ClusterConfig config;  // ideal datapath: deterministic bit-true
  std::vector<solve::SolveResult> solo;
  for (std::size_t j = 0; j < k; ++j) {
    auto backend = hw::make_bit_true_backend(rf, config);
    solo.push_back(solve::reference::cg(
        solve::reference::default_sweep(*backend),
        std::span<const double>(b).subspan(j * n, n), opts));
  }

  auto backend = hw::make_bit_true_backend(rf, config);
  solve::BackendMultiOperator multi(*backend, k);
  const solve::BatchedSolveResult batch = solve::cg_multi(multi, b, k, opts);
  for (std::size_t j = 0; j < k; ++j) {
    ASSERT_EQ(batch.columns[j].status, solo[j].status) << "column " << j;
    ASSERT_EQ(batch.columns[j].iterations, solo[j].iterations)
        << "column " << j;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(batch.columns[j].solution[i], solo[j].solution[i])
          << "column " << j << " row " << i;
    }
  }
  EXPECT_LT(batch.batched_applies, batch.column_applies);
}

}  // namespace
}  // namespace refloat

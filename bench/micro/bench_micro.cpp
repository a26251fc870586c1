// bench_micro: the SIMD-dispatch microbenchmark harness behind the
// perf-smoke CI gate (scripts/bench_compare.py vs bench/micro/baseline.json).
//
// Every sweep suite is registered once PER RUNNABLE ISA via
// core::simd_set_isa, so one JSON run carries the scalar-vs-vector ratio
// directly. Suites:
//
//   sweep_spmv/<isa>      kernel-only single-RHS row sweep over the packed
//                         dequantized operand (no quantize, no thread
//                         pool; the AVX2 table runs the scalar row loop)
//   sweep_spmm/<isa>/K    kernel-only K-RHS interleaved row sweep, K
//                         2/4/8/16
//   quantize_span/<isa>   the exponent-field fast path over dense spans
//   plan_build            RefloatMatrix conversion (quantize + packed
//                         operand + block index; no SpmvPlan) on the
//                         grid-64/128 stencils, and plan_build/scattered
//                         on the backend_sweep/value_scattered matrix (~2
//                         entries per nonzero block: per-block cost
//                         dominates, as in the thermomech stand-ins)
//   plan_make             SpmvPlan::build from a converted matrix (the
//                         cost a noisy or bit-true backend pays at
//                         construction) on the grid-64 stencil and the
//                         scattered matrix
//   gen_build             the generators' direct CSR builds on small fixed
//                         grids: gen_build/mass3d is the 27-point mass
//                         stencil at 24^3 (the crystm/qa8fm shape),
//                         gen_build/scattered the thermomech chain (7-point
//                         stencil at 32^3, shifted, randomly permuted)
//   probe                 the 96-step Lanczos definiteness probe
//                         (sparse::lanczos_extremes on rf.quantized(), not
//                         through the probe cache) on the grid-64 stencil
//                         and the scattered matrix
//   spmv_e2e/<isa>        a full k = 1 value-backend sweep (quantize_vector
//                         + row sweep + epilogue) at grid 128 — comparable
//                         to the historical 316 us scalar number in
//                         EXPERIMENTS.md
//   spmv_threads/T        spmv_e2e on the active ISA at T = 1/2/4/8 pool
//                         threads
//   backend_sweep/<kind>  the unified core::SweepBackend sweep entry
//                         (value / noisy / value_checked / bittrue) at
//                         k = 1 and k = 8 — gates the backend dispatch
//                         overhead, the batched noisy kernel's per-RHS cost,
//                         the ABFT checked-mode epilogue (value_checked vs
//                         value is the checksum verification overhead), and
//                         the bit-true crossbar datapath (hw::BitTrueBackend,
//                         ideal cluster config) at grid 32
//   backend_sweep/{value,noisy}_scattered/k
//                         the value and noisy backends at k = 1 and 8 on a
//                         scattered matrix whose nonzero 128x128 blocks
//                         hold ~2 entries — the thermomech regime, where a
//                         blocked walk pays its per-block cost on every 2
//                         entries
//   solve/<method>/value/k<k>
//                         cg_multi / bicgstab_multi over the value backend,
//                         k = 1 and 8 right-hand sides, on the grid-32
//                         stencil at a fixed 40 iterations (tolerance 0)
//   csr_spmv              sparse::Csr::spmv, the exact FP64 baseline, at
//                         grid 64/128/256 (ISA-independent)
//   hw/cluster_mvm        one bit-sliced 128x128 crossbar-cluster MVM
//                         (11 matrix planes, 16-bit operand, 10% density)
//   hw/engine_apply       one processing-engine pass over a 10%-dense
//                         128x128 block (quantize, four-quadrant MVM, ADC)
//   calibration           fixed serial FP dependency chain; pure host-speed
//                         probe used by bench_compare.py --normalize to
//                         factor machine speed out of cross-host baselines
//
// Sweep suites register paired latency/throughput variants: ".../lat" is
// the plain wall-time view the regression gate compares, ".../thr" adds
// GFLOP/s and model GB/s rate counters (rates are meaningless to diff
// directly across machines, so the gate skips "/thr" names by default).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/refloat_matrix.h"
#include "src/core/simd.h"
#include "src/core/spmv_plan.h"
#include "src/core/sweep_backend.h"
#include "src/gen/grid.h"
#include "src/hw/bit_true_backend.h"
#include "src/hw/engine.h"
#include "src/solvers/batched.h"
#include "src/sparse/lanczos.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"

namespace {

using namespace refloat;

// A cached workload: the matrix, its ReFloat conversion, and pre-generated
// operands. Built on first use and reused by every registration so the
// suite pays conversion once, not per benchmark.
struct Workload {
  sparse::Csr a;
  core::RefloatMatrix rf;
  std::vector<double> x;   // dense gaussian operand
  std::vector<double> xq;  // pre-quantized operand (kernel-only sweeps)

  explicit Workload(sparse::Csr matrix)
      : a(std::move(matrix)),
        rf(a, core::default_format()),
        x(static_cast<std::size_t>(a.rows())),
        xq(static_cast<std::size_t>(a.rows())) {
    util::Rng rng(7);
    for (double& v : x) v = rng.gaussian();
    rf.quantize_vector(x, xq);
  }
};

// One stencil workload per grid side.
const Workload& workload(long side) {
  static std::map<long, std::unique_ptr<Workload>> cache;
  auto& slot = cache[side];
  if (!slot) {
    slot = std::make_unique<Workload>(
        gen::build_stencil(gen::laplace2d_5pt(side, side)).shifted(0.05));
  }
  return *slot;
}

// A diagonal plus six uniformly scattered entries per row at n = 2^16: a
// block-row's 128 rows spread ~900 entries over 512 block-columns, so a
// nonzero 128x128 block holds ~2 entries, as in the thermomech stand-ins.
// (At n = 2^14 the 128 block-columns would force >= 7 entries per block.)
const Workload& scattered_workload() {
  static const Workload w([] {
    constexpr sparse::Index n = sparse::Index{1} << 16;
    util::Rng rng(31);
    std::vector<sparse::Triplet> triplets;
    triplets.reserve(static_cast<std::size_t>(n) * 7);
    for (sparse::Index r = 0; r < n; ++r) {
      triplets.push_back({r, r, 8.0});
      for (int i = 0; i < 6; ++i) {
        const auto c = static_cast<sparse::Index>(
            rng.next() % static_cast<std::uint64_t>(n));
        triplets.push_back({r, c, rng.gaussian()});
      }
    }
    return sparse::Csr::from_triplets(n, n, std::move(triplets));
  }());
  return w;
}

std::vector<core::SimdIsa> runnable_isas() {
  std::vector<core::SimdIsa> isas = {core::SimdIsa::kScalar};
  for (const core::SimdIsa isa :
       {core::SimdIsa::kAvx2, core::SimdIsa::kNeon}) {
    if (core::simd_isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

// --- sweep_spmv: kernel-only single-RHS row sweep --------------------------

void sweep_spmv(benchmark::State& state, core::SimdIsa isa, bool rates) {
  core::simd_set_isa(isa);
  const Workload& w = workload(state.range(0));
  const sparse::PackedCsr& q = w.rf.quantized();
  const auto rows = static_cast<std::size_t>(q.rows());
  const core::SweepKernels& kernels = core::sweep_kernels();
  std::vector<double> y(rows);
  for (auto _ : state) {
    kernels.spmv_rows(q, 0, rows, w.xq.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  const auto nnz = static_cast<double>(q.nnz());
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(q.nnz()));
  if (rates) {
    // Model traffic: the CSR arrays plus one 8-byte x gather per nonzero
    // and one 8-byte y write per row (upper bound: no cache reuse credited).
    const double bytes = static_cast<double>(q.memory_bytes()) + 8.0 * nnz +
                         8.0 * static_cast<double>(rows);
    state.counters["GFLOP/s"] = benchmark::Counter(
        2.0 * nnz, benchmark::Counter::kIsIterationInvariantRate,
        benchmark::Counter::OneK::kIs1000);
    state.counters["GB/s"] = benchmark::Counter(
        bytes, benchmark::Counter::kIsIterationInvariantRate,
        benchmark::Counter::OneK::kIs1000);
  }
}

// --- sweep_spmm: kernel-only K-RHS interleaved row sweep -------------------

void sweep_spmm(benchmark::State& state, core::SimdIsa isa, bool rates) {
  core::simd_set_isa(isa);
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  const Workload& w = workload(state.range(0));
  const sparse::PackedCsr& q = w.rf.quantized();
  const core::SweepKernels& kernels = core::sweep_kernels();
  const std::size_t n = static_cast<std::size_t>(w.a.rows());
  util::Rng rng(17);
  std::vector<double> x(n * k);
  for (double& v : x) v = rng.gaussian();
  std::vector<double> y(n * k);
  for (auto _ : state) {
    kernels.spmm_rows(q, 0, n, k, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  const auto nnz = static_cast<double>(q.nnz());
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(q.nnz()) * static_cast<long>(k));
  if (rates) {
    const double kd = static_cast<double>(k);
    const double bytes = static_cast<double>(q.memory_bytes()) +
                         8.0 * (nnz + static_cast<double>(n)) * kd;
    state.counters["GFLOP/s"] = benchmark::Counter(
        2.0 * nnz * kd, benchmark::Counter::kIsIterationInvariantRate,
        benchmark::Counter::OneK::kIs1000);
    state.counters["GB/s"] = benchmark::Counter(
        bytes, benchmark::Counter::kIsIterationInvariantRate,
        benchmark::Counter::OneK::kIs1000);
  }
}

// --- quantize_span: the exponent-field fast path ---------------------------

void quantize_span(benchmark::State& state, core::SimdIsa isa) {
  core::simd_set_isa(isa);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(23);
  std::vector<double> x(n);
  for (double& v : x) v = rng.gaussian();
  const core::QuantPolicy policy;
  const int base = core::select_block_base(x, 3, policy);
  std::vector<double> out(n);
  for (auto _ : state) {
    core::quantize_span(x, base, 3, 8, policy, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(n));
  state.counters["GB/s"] = benchmark::Counter(
      16.0 * static_cast<double>(n),  // 8 in + 8 out per element
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::OneK::kIs1000);
}

// --- plan_build: conversion (CSR + block index) ---------------------------

void plan_build(benchmark::State& state, const Workload& w) {
  const core::Format fmt = core::default_format();
  for (auto _ : state) {
    core::RefloatMatrix rf(w.a, fmt);
    benchmark::DoNotOptimize(rf.nonzero_blocks());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(w.a.nnz()));
}

// --- plan_make: SpmvPlan::build from a converted matrix -------------------

void plan_make(benchmark::State& state, const Workload& w) {
  for (auto _ : state) {
    const core::SpmvPlan plan = core::SpmvPlan::build(w.rf);
    benchmark::DoNotOptimize(plan.entry_value.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(w.a.nnz()));
}

// --- gen_build: direct CSR generation -------------------------------------

void gen_build_mass3d(benchmark::State& state) {
  const gen::StencilSpec spec = gen::mass3d_27pt(24, 24, 24);
  sparse::Index nnz = 0;
  for (auto _ : state) {
    const sparse::Csr a = gen::build_stencil(spec);
    nnz = a.nnz();
    benchmark::DoNotOptimize(a.values().data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(nnz));
}

void gen_build_scattered(benchmark::State& state) {
  const gen::StencilSpec spec = gen::laplace3d_7pt(32, 32, 32);
  std::vector<sparse::Index> perm(32 * 32 * 32);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    perm[i] = static_cast<sparse::Index>(i);
  }
  util::Rng rng(11);
  for (std::size_t i = perm.size() - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.below(i + 1)]);
  }
  sparse::Index nnz = 0;
  for (auto _ : state) {
    const sparse::Csr a =
        gen::build_stencil(spec).shifted(0.5).permuted_symmetric(perm);
    nnz = a.nnz();
    benchmark::DoNotOptimize(a.values().data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(nnz));
}

// --- probe: the Lanczos definiteness probe ---------------------------------

void probe(benchmark::State& state, const Workload& w) {
  for (auto _ : state) {
    const sparse::SpectrumEstimate est =
        sparse::lanczos_extremes(w.rf.quantized(), 96, /*seed=*/0x9e0beULL);
    benchmark::DoNotOptimize(est.lambda_min);
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) * 96 *
                          static_cast<long>(w.a.nnz()));
}

// --- spmv_e2e / spmv_threads: a full k = 1 value-backend sweep -----------

void spmv_e2e(benchmark::State& state, core::SimdIsa isa, int threads) {
  core::simd_set_isa(isa);
  util::ThreadPool::set_global_threads(threads);
  const Workload& w = workload(state.range(0));
  // One tile, as these rows always measured: the gated timing must not
  // follow $REFLOAT_TILES.
  const auto backend = core::make_value_backend(w.rf, /*tiles=*/1);
  std::vector<double> y(static_cast<std::size_t>(w.a.rows()));
  for (auto _ : state) {
    backend->sweep(w.x, 1, y, {});
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(w.a.nnz()));
  util::ThreadPool::set_global_threads(1);
}

// --- backend_sweep: the unified SweepBackend entry point -------------------

void backend_sweep(benchmark::State& state, const Workload& w,
                   std::size_t k, core::BackendKind kind,
                   bool checked = false) {
  core::simd_set_isa(core::simd_best_supported());
  util::ThreadPool::set_global_threads(1);
  const std::size_t n = static_cast<std::size_t>(w.a.rows());
  std::unique_ptr<core::SweepBackend> backend;
  switch (kind) {
    case core::BackendKind::kNoisy:
      backend = core::make_noisy_backend(w.rf, 1e-3, 42, /*tiles=*/1);
      break;
    case core::BackendKind::kBitTrue:
      backend = hw::make_bit_true_backend(w.rf, hw::ClusterConfig{});
      break;
    case core::BackendKind::kValue:
      backend = core::make_value_backend(w.rf, /*tiles=*/1);
      break;
  }
  // Checked mode: the ABFT epilogue verifies sum(Y_j) against the checksum
  // row per column — the overhead the serving daemon pays on every sweep.
  const core::AbftChecksum abft = core::make_abft_checksum(w.rf);
  core::SweepVerdict verdict;
  core::SweepContext ctx;
  if (checked) {
    backend->set_abft(&abft);
    ctx.verdict = &verdict;
  }
  util::Rng rng(29);
  std::vector<double> x(n * k);
  for (double& v : x) v = rng.gaussian();
  std::vector<double> y(n * k);
  for (auto _ : state) {
    backend->sweep(x, k, y, ctx);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(w.a.nnz()) *
                          static_cast<long>(k));
}

// --- solve: lockstep CG / BiCGSTAB at a fixed iteration count ------------

void solve_fixed(benchmark::State& state, bool bicgstab, std::size_t k) {
  constexpr long kIterations = 40;
  core::simd_set_isa(core::simd_best_supported());
  util::ThreadPool::set_global_threads(1);
  const Workload& w = workload(32);
  const auto backend = core::make_value_backend(w.rf, /*tiles=*/1);
  const std::vector<double> b = solve::make_rhs_batch(w.a, k);
  const solve::SolveOptions opts{.tolerance = 0.0,  // never met
                                 .max_iterations = kIterations,
                                 .record_trace = false};
  for (auto _ : state) {
    solve::BackendMultiOperator op(*backend, k);
    const solve::BatchedSolveResult result =
        bicgstab ? solve::bicgstab_multi(op, b, k, opts)
                 : solve::cg_multi(op, b, k, opts);
    benchmark::DoNotOptimize(result.columns.data());
    for (const solve::SolveResult& column : result.columns) {
      if (column.iterations != kIterations) state.SkipWithError("stopped");
    }
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(k) * kIterations);
}

// --- csr_spmv: the exact FP64 baseline ------------------------------------

void csr_spmv(benchmark::State& state) {
  const Workload& w = workload(state.range(0));
  std::vector<double> y(static_cast<std::size_t>(w.a.rows()));
  for (auto _ : state) {
    w.a.spmv(w.x, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(w.a.nnz()));
}

// --- hw: the bit-true primitives under hw::HwSpmv --------------------------

void cluster_mvm(benchmark::State& state) {
  util::Rng rng(11);
  const int side = 128;
  std::vector<std::vector<std::uint64_t>> m(
      side, std::vector<std::uint64_t>(side, 0));
  for (auto& row : m) {
    for (auto& v : row) {
      if (rng.uniform() < 0.1) v = rng.below(1 << 11);
    }
  }
  hw::CrossbarCluster cluster(m, 11);
  std::vector<std::uint64_t> x(side);
  for (auto& v : x) v = rng.below(1 << 16);
  std::vector<std::int64_t> y(side);
  for (auto _ : state) {
    cluster.mvm(x, 16, y, nullptr, rng);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
}

void engine_apply(benchmark::State& state) {
  util::Rng rng(13);
  const int side = 128;
  std::vector<std::vector<double>> block(side, std::vector<double>(side, 0.0));
  std::vector<double> flat;
  for (auto& row : block) {
    for (auto& v : row) {
      if (rng.uniform() < 0.1) {
        v = rng.gaussian();
        flat.push_back(v);
      }
    }
  }
  const core::Format fmt = core::default_format();
  const int eb = core::select_block_base(flat, fmt.e, {});
  hw::ProcessingEngine engine(block, eb, fmt);
  std::vector<double> x(side);
  for (double& v : x) v = rng.gaussian();
  std::vector<double> y(side, 0.0);
  for (auto _ : state) {
    engine.apply(x, y, nullptr, rng);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
}

// --- calibration: fixed host-speed probe -----------------------------------

void calibration(benchmark::State& state) {
  // A serial FP dependency chain the compiler can neither vectorize nor
  // reassociate: its time moves only with host clock speed, never with any
  // change in this repository. bench_compare.py --normalize divides every
  // benchmark's time by this one to compare runs across hosts.
  double acc = 1.0;
  for (auto _ : state) {
    for (int i = 0; i < 4096; ++i) acc = acc * 1.0000001 + 1e-9;
    benchmark::DoNotOptimize(acc);
  }
}

void register_all() {
  const std::vector<core::SimdIsa> isas = runnable_isas();
  for (const core::SimdIsa isa : isas) {
    const std::string tag = core::simd_isa_name(isa);
    benchmark::RegisterBenchmark(
        ("sweep_spmv/" + tag + "/lat").c_str(),
        [isa](benchmark::State& s) { sweep_spmv(s, isa, false); })
        ->Arg(64)->Arg(128)->Arg(256);
    benchmark::RegisterBenchmark(
        ("sweep_spmv/" + tag + "/thr").c_str(),
        [isa](benchmark::State& s) { sweep_spmv(s, isa, true); })
        ->Arg(128);
    benchmark::RegisterBenchmark(
        ("sweep_spmm/" + tag + "/lat").c_str(),
        [isa](benchmark::State& s) { sweep_spmm(s, isa, false); })
        ->Args({128, 2})->Args({128, 4})->Args({128, 8})->Args({128, 16});
    benchmark::RegisterBenchmark(
        ("sweep_spmm/" + tag + "/thr").c_str(),
        [isa](benchmark::State& s) { sweep_spmm(s, isa, true); })
        ->Args({128, 8});
    benchmark::RegisterBenchmark(
        ("quantize_span/" + tag).c_str(),
        [isa](benchmark::State& s) { quantize_span(s, isa); })
        ->Arg(4096)->Arg(16384)->Arg(65536);
    benchmark::RegisterBenchmark(
        ("spmv_e2e/" + tag).c_str(),
        [isa](benchmark::State& s) { spmv_e2e(s, isa, 1); })
        ->Arg(128);
  }
  benchmark::RegisterBenchmark("plan_build",
                               [](benchmark::State& s) {
                                 plan_build(s, workload(s.range(0)));
                               })
      ->Arg(64)->Arg(128);
  benchmark::RegisterBenchmark("plan_build/scattered", [](benchmark::State& s) {
    plan_build(s, scattered_workload());
  });
  benchmark::RegisterBenchmark("plan_make",
                               [](benchmark::State& s) {
                                 plan_make(s, workload(s.range(0)));
                               })
      ->Arg(64);
  benchmark::RegisterBenchmark("plan_make/scattered", [](benchmark::State& s) {
    plan_make(s, scattered_workload());
  });
  benchmark::RegisterBenchmark("gen_build/mass3d", gen_build_mass3d);
  benchmark::RegisterBenchmark("gen_build/scattered", gen_build_scattered);
  benchmark::RegisterBenchmark("probe",
                               [](benchmark::State& s) {
                                 probe(s, workload(s.range(0)));
                               })
      ->Arg(64);
  benchmark::RegisterBenchmark("probe/scattered", [](benchmark::State& s) {
    probe(s, scattered_workload());
  });
  const core::SimdIsa best = core::simd_best_supported();
  for (const int threads : {1, 2, 4, 8}) {
    benchmark::RegisterBenchmark(
        ("spmv_threads/" + std::to_string(threads)).c_str(),
        [best, threads](benchmark::State& s) { spmv_e2e(s, best, threads); })
        ->Arg(128);
  }
  // Grid-workload rows take Args({side, k}).
  const auto grid_sweep = [](core::BackendKind kind, bool checked) {
    return [kind, checked](benchmark::State& s) {
      backend_sweep(s, workload(s.range(0)),
                    static_cast<std::size_t>(s.range(1)), kind, checked);
    };
  };
  benchmark::RegisterBenchmark("backend_sweep/value",
                               grid_sweep(core::BackendKind::kValue, false))
      ->Args({64, 1})->Args({64, 8});
  benchmark::RegisterBenchmark("backend_sweep/noisy",
                               grid_sweep(core::BackendKind::kNoisy, false))
      ->Args({64, 1})->Args({64, 8});
  benchmark::RegisterBenchmark("backend_sweep/value_checked",
                               grid_sweep(core::BackendKind::kValue, true))
      ->Args({64, 1})->Args({64, 8});
  benchmark::RegisterBenchmark("backend_sweep/bittrue",
                               grid_sweep(core::BackendKind::kBitTrue, false))
      ->Args({32, 1})->Args({32, 8});
  // Scattered-workload rows take Arg(k).
  const auto scattered_sweep = [](core::BackendKind kind) {
    return [kind](benchmark::State& s) {
      backend_sweep(s, scattered_workload(),
                    static_cast<std::size_t>(s.range(0)), kind);
    };
  };
  benchmark::RegisterBenchmark("backend_sweep/value_scattered",
                               scattered_sweep(core::BackendKind::kValue))
      ->Arg(1)->Arg(8);
  benchmark::RegisterBenchmark("backend_sweep/noisy_scattered",
                               scattered_sweep(core::BackendKind::kNoisy))
      ->Arg(1)->Arg(8);
  for (const bool bicgstab : {false, true}) {
    for (const std::size_t k : {1, 8}) {
      const std::string name = std::string("solve/") +
                               (bicgstab ? "bicgstab" : "cg") + "/value/k" +
                               std::to_string(k);
      benchmark::RegisterBenchmark(name.c_str(), [=](benchmark::State& s) {
        solve_fixed(s, bicgstab, k);
      });
    }
  }
  benchmark::RegisterBenchmark("csr_spmv", csr_spmv)
      ->Arg(64)->Arg(128)->Arg(256);
  benchmark::RegisterBenchmark("hw/cluster_mvm", cluster_mvm);
  benchmark::RegisterBenchmark("hw/engine_apply", engine_apply);
  benchmark::RegisterBenchmark("calibration", calibration);
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Self-description in the JSON context block: which kernel path the
  // dispatcher would pick by default, and the pool configuration — so a
  // baseline JSON records what it actually measured.
  benchmark::AddCustomContext("refloat_simd_active",
                              core::simd_isa_name(core::simd_active_isa()));
  benchmark::AddCustomContext("refloat_simd_best",
                              core::simd_isa_name(core::simd_best_supported()));
  benchmark::AddCustomContext(
      "refloat_threads",
      std::to_string(refloat::util::ThreadPool::default_threads()));
  benchmark::AddCustomContext(
      "refloat_affinity", refloat::util::ThreadPool::affinity_mode_name());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

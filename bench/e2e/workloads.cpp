#include "bench/e2e/workloads.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "src/gen/grid.h"
#include "src/serve/batcher.h"
#include "src/util/random.h"

namespace e2e {

namespace {

using refloat::core::BackendKind;

std::map<std::string, MatrixDef> build_registry() {
  std::map<std::string, MatrixDef> defs;
  for (const refloat::gen::SuiteSpec& spec : refloat::gen::suite()) {
    // The Table VII formats, as SolverDaemon::register_suite picks them.
    defs[spec.name] = MatrixDef{
        spec.name,
        spec.fv_override != 0 ? refloat::core::default_format_fv16()
                              : refloat::core::default_format(),
        &spec};
  }
  defs[kLaplace] =
      MatrixDef{kLaplace, refloat::core::default_format(), nullptr};
  return defs;
}

Job value_job(const char* matrix, double tolerance, std::size_t size = 1) {
  return Job{matrix, BackendKind::kValue, 0.0, tolerance, size};
}

// Table VI as a service: one request in flight, every matrix resident.
// Dubcova2 is left out because a diverging Dubcova2 solve takes ~33 s, and
// gridgena because its value-backend solve diverges: the benchmark's
// workloads must answer every request converged.
Workload suite_solo() {
  Workload w;
  w.name = "suite_solo";
  w.jobs_in_flight = 1;
  w.window_ms = 0.0;
  w.cache_mb = 512;
  w.nominal_pass_s = 3.7;
  for (const char* m :
       {"crystm01", "minsurfo", "crystm02", "shallow_water1", "wathen100",
        "wathen120", "crystm03", "thermomech_TC", "thermomech_dM", "qa8fm"}) {
    w.pass.push_back(value_job(m, 1e-8));
  }
  return w;
}

// Two multi-RHS jobs in flight on distinct matrices. The sizes are drawn
// from {1, 2, 4, 8, 16}: size >= 8 dispatches on a full batch, smaller jobs
// on window expiry. Adjacent jobs name different matrices so two jobs in
// flight never merge into one batch.
Workload hot_batch() {
  Workload w;
  w.name = "hot_batch";
  w.jobs_in_flight = 2;
  w.window_ms = 2.0;
  w.max_batch = 8;
  w.cache_mb = 512;
  w.nominal_pass_s = 3.4;
  w.pass = {value_job("crystm02", 1e-8, 16), value_job("crystm03", 1e-8, 8),
            value_job("qa8fm", 1e-8, 8),     value_job("wathen100", 1e-8, 4),
            value_job("crystm02", 1e-8, 2),  value_job("crystm03", 1e-8, 4),
            value_job("qa8fm", 1e-8, 1),     value_job("wathen100", 1e-8, 2)};
  return w;
}

// A working set about 2.4x the residency cache under Zipf(1) popularity:
// most requests pay a cold build. Counts are the exact Zipf(1) shares of
// the pass, in an order shuffled once by a fixed seed, so every run and
// every commit replays the same LRU sequence.
Workload churn_cold() {
  Workload w;
  w.name = "churn_cold";
  w.jobs_in_flight = 1;
  w.window_ms = 0.0;
  w.cache_mb = 32;
  w.nominal_pass_s = 4.2;
  const char* ranked[] = {"crystm01",  "minsurfo", "crystm02", "shallow_water1",
                          "wathen100", "crystm03", "wathen120"};
  constexpr std::size_t kPass = 30;
  constexpr std::size_t kKeys = std::size(ranked);
  // Largest-remainder apportionment of kPass draws to weights 1/rank.
  double total = 0.0;
  for (std::size_t r = 1; r <= kKeys; ++r) {
    total += 1.0 / static_cast<double>(r);
  }
  std::vector<std::size_t> count(kKeys);
  std::vector<std::pair<double, std::size_t>> remainder;
  std::size_t given = 0;
  for (std::size_t r = 0; r < kKeys; ++r) {
    const double share = kPass / (static_cast<double>(r + 1) * total);
    count[r] = static_cast<std::size_t>(share);
    given += count[r];
    remainder.emplace_back(share - static_cast<double>(count[r]), r);
  }
  std::sort(remainder.rbegin(), remainder.rend());
  for (std::size_t i = 0; given < kPass; ++i, ++given) {
    ++count[remainder[i].second];
  }
  for (std::size_t r = 0; r < kKeys; ++r) {
    for (std::size_t i = 0; i < count[r]; ++i) {
      w.pass.push_back(value_job(ranked[r], 1e-6));
    }
  }
  refloat::util::Rng rng(0xc01d5eedULL);
  for (std::size_t i = w.pass.size() - 1; i > 0; --i) {
    std::swap(w.pass[i], w.pass[rng.below(i + 1)]);
  }
  return w;
}

// The two emulation views of the sweep: bit-true jobs on a small grid
// alternating with noisy jobs on crystm02, two jobs in flight on the one
// dispatcher.
Workload emulated_mix() {
  Workload w;
  w.name = "emulated_mix";
  w.jobs_in_flight = 2;
  w.window_ms = 2.0;
  w.max_batch = 8;
  w.cache_mb = 512;
  w.nominal_pass_s = 4.6;
  const Job bit_true{kLaplace, BackendKind::kBitTrue, 0.0, 1e-3, 2};
  const Job noisy{"crystm02", BackendKind::kNoisy, 0.02, 1e-8, 4};
  w.pass = {bit_true, noisy, bit_true, noisy};
  return w;
}

}  // namespace

const MatrixDef& matrix_def(const std::string& name) {
  static const std::map<std::string, MatrixDef> defs = build_registry();
  const auto it = defs.find(name);
  if (it == defs.end()) throw std::invalid_argument("unknown matrix " + name);
  return it->second;
}

refloat::sparse::Csr load_matrix(const MatrixDef& def,
                                 const std::string& data_dir) {
  if (def.spec != nullptr) {
    return refloat::gen::load_or_build(*def.spec, data_dir);
  }
  // The same shifted-Laplacian shape bench_serve serves (SPD, CG route).
  return refloat::gen::build_stencil(refloat::gen::laplace2d_5pt(24, 24))
      .shifted(0.15);
}

refloat::serve::SolveRequest job_request(const Job& job) {
  refloat::serve::SolveRequest request;
  request.matrix = job.matrix;
  request.backend = job.backend;
  request.noise_sigma = job.sigma;
  request.tolerance = job.tolerance;
  return request;
}

std::string job_key(const Job& job) {
  return refloat::serve::batch_key(job_request(job));
}

bool make_workload(std::string_view name, Workload* out) {
  if (name == "suite_solo") {
    *out = suite_solo();
  } else if (name == "hot_batch") {
    *out = hot_batch();
  } else if (name == "churn_cold") {
    *out = churn_cold();
  } else if (name == "emulated_mix") {
    *out = emulated_mix();
  } else {
    return false;
  }
  return true;
}

std::vector<Job> warm_order(const Workload& workload) {
  std::vector<Job> order;
  for (auto it = workload.pass.rbegin(); it != workload.pass.rend(); ++it) {
    const bool seen =
        std::any_of(order.begin(), order.end(),
                    [&](const Job& j) { return job_key(j) == job_key(*it); });
    if (!seen) order.push_back(*it);
  }
  std::reverse(order.begin(), order.end());
  return order;
}

std::size_t passes_for(const Workload& workload, double seconds) {
  return static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / workload.nominal_pass_s)));
}

Workload smoke_cut(const Workload& workload) {
  Workload cut = workload;
  cut.pass.resize(std::max<std::size_t>(1, workload.pass.size() / 10));
  return cut;
}

}  // namespace e2e

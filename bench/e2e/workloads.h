// The four solve-service workloads of bench_e2e and the matrices they serve.
//
// A workload is a fixed request list: one *pass* of jobs, repeated a fixed
// number of times (passes_for). A job is `size` same-matrix requests
// submitted back to back; the generator keeps `jobs_in_flight` jobs
// outstanding. The list (matrices, job sizes, order) is the same on every
// commit and every seed, so two runs always ask for the same work; the seed
// only draws the numbers (right-hand sides and noise streams). README.md
// gives the reason for each workload.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/format.h"
#include "src/core/sweep_backend.h"
#include "src/gen/suite.h"
#include "src/serve/request.h"
#include "src/sparse/csr.h"

namespace e2e {

// The small grid the bit-true jobs solve. The daemon serves the Table V
// stand-ins through register_suite(); the bench registers this one itself.
inline constexpr const char* kLaplace = "laplace24x24";

// A matrix the workloads serve, as the replay rebuilds it: a Table V
// stand-in (generated into the data directory during set-up, then loaded
// through gen::load_or_build) in the format register_suite() gives it, or
// the small grid, built in memory. A format that differs from the daemon's
// shows as a replay mismatch, which fails the run.
struct MatrixDef {
  std::string name;
  refloat::core::Format format;
  const refloat::gen::SuiteSpec* spec = nullptr;  // null: built in memory
};

// Throws std::invalid_argument for a name no workload uses.
const MatrixDef& matrix_def(const std::string& name);

// The exact FP64 matrix, exactly as the build function registered with the
// daemon makes it (gen::load_or_build from `data_dir` for suite matrices).
refloat::sparse::Csr load_matrix(const MatrixDef& def,
                                 const std::string& data_dir);

struct Job {
  std::string matrix;
  refloat::core::BackendKind backend = refloat::core::BackendKind::kValue;
  double sigma = 0.0;  // noisy backend only
  double tolerance = 1e-8;
  std::size_t size = 1;  // requests submitted back to back
};

// The serve::SolveRequest shape of one job member, without the seeds.
refloat::serve::SolveRequest job_request(const Job& job);
// The daemon's batching and residency key of a job's requests.
std::string job_key(const Job& job);

struct Workload {
  std::string name;
  std::size_t jobs_in_flight = 1;
  double window_ms = 0.0;
  std::size_t max_batch = 8;
  std::size_t cache_mb = 512;
  std::vector<Job> pass;  // one pass, in submission order
  // One pass's median wall time, with one pool thread, on the machine the
  // benchmark was calibrated on (a 4-vCPU x86-64 AVX2 guest on a busy
  // shared host). A constant: it sizes the run, and must not follow the
  // speed of the code being measured.
  double nominal_pass_s = 1.0;
};

// False for an unknown name.
bool make_workload(std::string_view name, Workload* out);

// The number of passes a run of `seconds` makes: seconds / nominal_pass_s,
// rounded, at least one. The same on every commit for the same --seconds.
std::size_t passes_for(const Workload& workload, double seconds);

// The keys set-up warms: one job per distinct key of the pass, ordered by
// the key's last occurrence. Touching them in this order leaves a
// byte-budgeted LRU cache holding exactly what it holds after a full pass,
// so the first measured pass starts from the same cache state as the rest.
std::vector<Job> warm_order(const Workload& workload);

// The smoke cut: the first tenth of the pass, at least one job.
Workload smoke_cut(const Workload& workload);

}  // namespace e2e

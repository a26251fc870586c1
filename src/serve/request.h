// Request/response vocabulary of the serving layer (docs/ARCHITECTURE.md
// "Serving layer").
//
// A solve request names a registered matrix, carries (or seeds) a
// right-hand side, and bounds its service with a tolerance and an optional
// deadline. The daemon answers every accepted request with exactly one
// SolveResponse — solved, shed, or failed — carrying the per-request
// latency breakdown (queue wait / build / solve / total) the stats table
// aggregates.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/sweep_backend.h"
#include "src/solvers/solver.h"

namespace refloat::serve {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;
using Duration = Clock::duration;

// "No deadline": requests default to this and are never deadline-shed.
inline constexpr TimePoint kNoDeadline = TimePoint::max();

struct SolveRequest {
  std::string matrix;        // registry key (e.g. a suite name)
  std::vector<double> rhs;   // dim() entries; empty -> generated from
                             // rhs_seed at dispatch (deterministic per
                             // (matrix, seed) — the TCP front-end's path)
  std::uint64_t rhs_seed = 0;
  double tolerance = 1e-8;   // absolute residual target (||b|| = 1 setup)
  TimePoint deadline = kNoDeadline;  // shed (not solved) once this passes
  bool want_solution = true;  // false skips copying x into the response

  // Execution backend the solve runs on. Requests batch (and cache a
  // residency entry) per (matrix, backend, noise_sigma) — see batch_key —
  // so a noisy solve never shares a batch or a programmed crossbar image
  // with a value-faithful one.
  core::BackendKind backend = core::BackendKind::kValue;
  double noise_sigma = 0.02;      // noisy backend: RTN deviation (Fig. 10)
  std::uint64_t noise_seed = 0;   // stochastic backends: this request's
                                  // stream seed — the batched solve is
                                  // bit-identical to a solo solve with the
                                  // same seed, whatever batch it rides in
};

enum class ResponseStatus {
  kOk,             // solved (solve_status says how the solver terminated)
  kShedQueueFull,  // admission control: queue_capacity requests were
                   // already admitted and not yet solving
  kShedDeadline,   // deadline passed before the batch dispatched
  kUnknownMatrix,  // no registered builder under request.matrix
  kBadRequest,     // rhs size does not match the matrix dimension
  kShutdown,       // daemon stopped before the request dispatched
};

const char* response_status_name(ResponseStatus status);

// Per-request wall-clock accounting. queue + build + solve <= total (the
// remainder is batcher wait and bookkeeping). Build time is the residency
// cache miss cost — the expensive "program the matrix" step the cache
// amortizes; every request in the batch that triggered the build reports
// the same build_seconds, and cache hits report ~0.
struct LatencyBreakdown {
  double queue_seconds = 0.0;  // submit -> admitted into the batcher
  double build_seconds = 0.0;  // residency-cache get_or_build
  double solve_seconds = 0.0;  // the batched solver call
  double total_seconds = 0.0;  // submit -> response
};

struct SolveResponse {
  ResponseStatus status = ResponseStatus::kShutdown;
  solve::SolveStatus solve_status = solve::SolveStatus::kMaxIterations;
  long iterations = 0;
  double final_residual = 0.0;
  std::vector<double> solution;   // empty unless kOk and want_solution
  std::size_t batch_k = 0;        // batch size this request rode in
  const char* solver = "";        // "cg" or "bicgstab" (probe-routed)
  const char* backend = "value";  // backend_kind_name of the executing view
                                  // — the FINAL view after any degradation
  bool cache_hit = false;         // matrix was already resident
  // Recovery-ladder accounting (docs/ARCHITECTURE.md "Fault tolerance"):
  // how many retry attempts this request consumed, and whether the answer
  // came from a degraded execution view (bittrue -> noisy -> value). The
  // TCP front-end echoes `degraded=<backend>` so clients see the contract
  // they actually got.
  int retries = 0;
  bool degraded = false;
  LatencyBreakdown latency;
};

}  // namespace refloat::serve

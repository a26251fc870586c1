// Batched multi-RHS solves: AX = B for k right-hand sides in lockstep.
//
// The accelerator's economics motivate this layer (ROADMAP "batched
// multi-rhs solves"): a programmed crossbar image is expensive to write and
// cheap to reuse, so k independent CG/BiCGSTAB instances advance together
// and merge their operator applications into ONE SpMM per apply point —
// each reprogram round is charged once per batch instead of once per
// right-hand side (arch::spmm_time models the amortization).
//
// These are the library's only CG and BiCGSTAB: a single-RHS solve is the
// k = 1 case (cg_multi(op, b, 1, options).columns[0]).
//
// Numerical contract: the lockstep drivers are *orchestration only*. Every
// column keeps its own scalars, vectors, and Monitor, and every batched
// apply is column-wise bit-identical to a single apply — so each column's
// trajectory (status, iteration count, solution, trace) is bit-identical
// to the textbook serial CG / BiCGSTAB run on that column alone
// (tests/reference_solvers.h keeps that serial statement as the pin).
// Columns that terminate drop out of the active batch; the remaining
// columns keep batching.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/sweep_backend.h"
#include "src/solvers/solver.h"

namespace refloat::solve {

// Routes the lockstep drivers through any core::SweepBackend — the one
// adapter that batches all three execution views (value / noisy /
// bit-true). For stochastic backends it maintains each column's solo
// stream identity: column j keeps its own seed and a private application
// counter that advances only when the column participates in an apply —
// exactly the (seed, sequence++) stream a default-context sweep of a
// backend built with that seed draws — so every column of a batched noisy
// or bit-true solve is bit-identical to its solo solve, through dropout,
// restarts, and early exits. The backend is borrowed; one operator
// instance per solve. An apply naming a column id >= the capacity throws
// std::out_of_range.
class BackendMultiOperator final : public MultiOperator {
 public:
  // Capacity `k` columns; stochastic identities fork `seed` per column
  // (column 0 keeps it verbatim, so a k = 1 operator draws the streams of
  // the backend's default context when `seed` is the backend's own seed).
  BackendMultiOperator(core::SweepBackend& backend, std::size_t k,
                       std::uint64_t seed = 0x5eedULL);
  // Explicit per-column seeds (e.g. the serving layer passing each
  // request's own noise seed).
  BackendMultiOperator(core::SweepBackend& backend,
                       std::vector<std::uint64_t> seeds);

  void apply(std::span<const double> x, std::size_t k, std::span<double> y,
             std::span<const std::size_t> columns) override;
  [[nodiscard]] sparse::Index dim() const override {
    return static_cast<sparse::Index>(backend_.rows());
  }
  [[nodiscard]] const core::SweepVerdict* last_verdict() const override {
    return backend_.abft() != nullptr ? &verdict_ : nullptr;
  }

 private:
  core::SweepBackend& backend_;
  std::vector<std::uint64_t> seeds_;     // per original batch column
  std::vector<std::uint64_t> counters_;  // applies the column took part in
  std::vector<std::uint64_t> ctx_seeds_;
  std::vector<std::uint64_t> ctx_sequences_;
  core::SweepVerdict verdict_;  // filled by every checked sweep
};

// One non-converged column of a lockstep solve, in the structured form the
// serving layer's recovery ladder consumes: which column, how it failed,
// when, and the last residual known good (the solution vector in
// BatchedSolveResult::columns[column] holds the matching last-good iterate
// — a kCorrupted column's x was never touched by the flagged sweep).
struct ColumnFailure {
  std::size_t column = 0;
  SolveStatus status = SolveStatus::kMaxIterations;
  long iteration = 0;
  double last_good_residual = 0.0;
};

struct BatchedSolveResult {
  std::vector<SolveResult> columns;  // one per right-hand side, in order
  // Every column that terminated with a status other than kConverged, in
  // column order — the daemon's retry/degrade ladder keys its rungs off
  // these statuses.
  std::vector<ColumnFailure> failures;
  // Operator-application accounting: how many batched apply calls the
  // lockstep run issued vs the per-column applications they carried (the
  // k-sequential-solves count). Their ratio is the reprogram amortization
  // the timing model prices.
  long batched_applies = 0;
  long column_applies = 0;

  [[nodiscard]] bool all_converged() const {
    for (const SolveResult& r : columns) {
      if (r.status != SolveStatus::kConverged) return false;
    }
    return true;
  }
};

// Lockstep CG on k right-hand sides. `b` holds exactly k vectors of
// op.dim() entries each, column-major; the solve keeps its state
// interleaved (slot i*k + j) and returns each column's
// solution as its own vector. Column j's result is bit-identical to serial
// CG on column j alone.
//
// `tolerances` (empty, or exactly k entries) overrides options.tolerance
// per column — the serving layer batches same-matrix requests that arrive
// with different tolerances, and each column must still terminate exactly
// as its solo solve would. Column j with tolerances[j] = t is bit-identical
// to the serial solve with options.tolerance = t.
//
// `x0` (empty, or k vectors laid out like b) warm-starts the solve: x = x0 and
// r = b - A x0 (one extra batched apply), the recovery ladder's "re-solve
// from the last-good iterate" rung. Empty keeps the classic x = 0 start —
// and only that start carries the bit-identity contract above.
//
// Throws std::invalid_argument when b.size() != k * op.dim(), or when
// `tolerances` / `x0` is non-empty and not k / k * op.dim() long.
BatchedSolveResult cg_multi(MultiOperator& op, std::span<const double> b,
                            std::size_t k, const SolveOptions& options,
                            std::span<const double> tolerances = {},
                            std::span<const double> x0 = {});

// Lockstep BiCGSTAB (same contract and the same argument checks, including
// the restart rescue and the early s-norm exit of the serial method — the
// early exit also honors the per-column tolerance).
BatchedSolveResult bicgstab_multi(MultiOperator& op,
                                  std::span<const double> b, std::size_t k,
                                  const SolveOptions& options,
                                  std::span<const double> tolerances = {},
                                  std::span<const double> x0 = {});

// k deterministic right-hand sides (column-major), each scaled to
// ||b_j|| = norm: column 0 is make_rhs(a, norm); later columns perturb the
// stream seed so a batch exercises genuinely distinct systems.
std::vector<double> make_rhs_batch(const sparse::Csr& a, std::size_t k,
                                   double norm = 1.0);

}  // namespace refloat::solve

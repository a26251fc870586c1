// SweepBackend: the one execution interface behind the paper's three views
// of the same crossbar sweep — value-faithful (exact quantized values),
// noisy (Fig. 10 multiplicative RTN on every per-block row partial), and
// bit-true (the hw/ crossbar datapath with faults + ECC). It is the only
// way to sweep a RefloatMatrix. Every view exposes the same k-RHS entry
// point
//
//     sweep(X, k, Y, ctx)   // X: k column-major vectors, Y likewise
//
// with the shared guarantees the solvers and the serving layer build on:
//
//   * k = 1 runs the single-RHS loops (value, noisy) — the batched
//     scaffolding is skipped entirely, not merely equivalent.
//   * Column j of a k-RHS sweep is bit-identical to a solo sweep of that
//     column: matrix entries (value, noisy) or blocks (bit-true) are
//     visited once per batch and applied to all k columns, but per column
//     the accumulation order is exactly the serial single-RHS order.
//   * Stochastic backends key their counter-based streams per
//     (seed, sequence, grid block-row, column) through SweepContext, so
//     every column reproduces its solo-solve trajectory at any thread
//     count and any tile split.
//
// What each view keeps: the value and noisy backends sweep rf.quantized()
// (the noisy one band by band, ranking its draws from rf.block_index())
// and hold nothing beyond scratch; the bit-true backend builds a plan,
// programs its crossbar image from it and frees it. resident_bytes()
// reports what a view pins on top of the RefloatMatrix it borrows.
//
// Tiling is a constructor-time choice (a pure scheduling change), threading
// lives inside the sweep on util::ThreadPool::global(), and the
// quantize -> interleave -> sharded row/block-row sweep -> deinterleave
// scaffolding lives once in sweep_backend.cc, with sparse::interleave /
// sparse::deinterleave as the single layout-transpose definition.
//
// This TU is compiled with -ffp-contract=off like the kernel TUs: the noisy
// partial accumulation is scalar code, and pinning its rounding makes solo
// and batched noisy columns bit-comparable on every build flag set.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/core/refloat_matrix.h"
#include "src/core/tiled_plan.h"

namespace refloat::core {

enum class BackendKind {
  kValue = 0,    // exact quantized-value sweep
  kNoisy = 1,    // + multiplicative Gaussian RTN per block-row partial
  kBitTrue = 2,  // hw/ bit-serial crossbar datapath (faults, ADC, ECC)
};

// Short lowercase name ("value", "noisy", "bittrue") — the serve protocol's
// backend= token and the residency-cache key component.
const char* backend_kind_name(BackendKind kind);
// Parses a backend_kind_name token; false (out unchanged) on anything else.
bool parse_backend_kind(std::string_view name, BackendKind* out);

// Salt used to fork one base seed into per-column stream seeds (column 0
// keeps the base verbatim, so k=1 reproduces the single-RHS streams).
// Shared by the noisy backend's default context and
// solve::BackendMultiOperator so both derive the same column identities.
inline constexpr std::uint64_t kColumnForkSalt = 0xb5a7c01ULL;

// ABFT verdict of one checked sweep (docs/ARCHITECTURE.md "Fault
// tolerance"): per column the backend verifies sum(Y_col) against
// checksumᵀ·X_col and flags columns whose relative discrepancy exceeds the
// checksum's tolerance — including NaN/Inf outputs, which fail the
// comparison by construction. `bad_columns` holds PACKED column indices
// (0..k-1 of the sweep that produced the verdict); callers batching a
// subset map them back through their active-column list.
struct SweepVerdict {
  bool checked = false;  // false: the backend ran unchecked
  bool ok = true;
  double worst_error = 0.0;  // largest per-column relative discrepancy
  double tolerance = 0.0;    // the threshold worst_error was judged against
  std::vector<std::size_t> bad_columns;

  void reset() {
    checked = false;
    ok = true;
    worst_error = 0.0;
    tolerance = 0.0;
    bad_columns.clear();
  }
};

// The precomputed ABFT checksum row: column sums of the dequantized
// operator (one pass over the packed operand). It is a snapshot: computed
// when a matrix becomes resident, it keeps describing the clean operand, so
// later silent damage to the stored value codes — which value and noisy
// sweeps read and from which a bit-true backend builds its SpmvPlan — is
// visible against it. The classic trick is appending this row to A so the
// sweep emits its own check value; here the backends contract it against
// the quantized operand directly — the same O(n·k) work without disturbing
// the block image.
//
// `rel_tolerance` scales with the execution view's honest deviation from
// the exact product: FP rounding only for the value backend, sigma-scaled
// for noisy sweeps, vector-format truncation for bit-true. It bounds the
// *relative* discrepancy against the magnitude actually summed, so
// cancellation-heavy columns don't false-positive.
struct AbftChecksum {
  std::vector<double> colsum;
  double rel_tolerance = 1e-6;
};
AbftChecksum make_abft_checksum(const RefloatMatrix& rf,
                                double rel_tolerance = 1e-6);

// Per-column stream identity for stochastic backends. Either both spans are
// empty (the backend falls back to its constructor seed and an internal
// per-sweep application counter) or both have >= k entries: column j draws
// from counter-based streams keyed by (seeds[j], sequences[j], block-row).
// Callers that batch independent solves (the lockstep drivers, the serving
// layer) pass each column's solo identity here so the batch reproduces the
// solo trajectories bit-for-bit. Value backends ignore the context.
//
// `verdict`, when non-null, receives the ABFT verdict of each sweep: the
// backend resets it and fills it when a checksum is attached (set_abft);
// without one it stays checked = false.
struct SweepContext {
  std::span<const std::uint64_t> seeds;
  std::span<const std::uint64_t> sequences;
  SweepVerdict* verdict = nullptr;
};

class SweepBackend {
 public:
  virtual ~SweepBackend() = default;

  [[nodiscard]] virtual std::size_t rows() const = 0;
  [[nodiscard]] virtual std::size_t cols() const = 0;
  [[nodiscard]] virtual BackendKind kind() const = 0;
  // Stable short label for logs/benches (e.g. "refloat", "refloat+rtn",
  // "hw+bittrue").
  [[nodiscard]] virtual const char* label() const = 0;

  // Y = op(X) for k column-major vectors: x.size() == k * cols(),
  // y.size() == k * rows(). One instance must not sweep concurrently from
  // two threads (scratch is per-instance); parallelism lives inside.
  virtual void sweep(std::span<const double> x, std::size_t k,
                     std::span<double> y, const SweepContext& ctx) = 0;

  // Attaches (or detaches, with nullptr) the ABFT checked mode: subsequent
  // sweeps verify every output column against the checksum and report
  // through ctx.verdict. The checksum is borrowed; the caller keeps it
  // alive and sized to cols(). Checking never modifies Y, so a checked
  // sweep stays bit-identical to an unchecked one.
  void set_abft(const AbftChecksum* abft) { abft_ = abft; }
  [[nodiscard]] const AbftChecksum* abft() const { return abft_; }

  // Rebuilds whatever hardware state the view models (the bit-true
  // backend reprograms its crossbar image with `salt` folded into the
  // fault seed). Returns false for views with nothing to reprogram — the
  // recovery ladder skips that rung.
  virtual bool reprogram(std::uint64_t salt) {
    (void)salt;
    return false;
  }

  // Host heap bytes the view pins beyond the RefloatMatrix it borrows (and
  // beyond per-sweep scratch): 0 for value and noisy sweeps, which read
  // the resident operand itself; the programmed crossbar image for
  // bit-true. The serving layer adds this to RefloatMatrix::resident_bytes
  // for its cache budget.
  [[nodiscard]] virtual std::size_t resident_bytes() const { return 0; }

 protected:
  // The shared sweep epilogue every view ends its sweep() with: the
  // util::FaultInjector's `sweep` site (per-column corruption of Y —
  // applied serially after the parallel sweep, so a fault trace is
  // identical at any thread/tile count) followed by the ABFT verification
  // when a checksum is attached. `x_check` holds the k column-major operand
  // vectors the checksum contracts against — the quantized columns for the
  // exact views, the raw operand for bit-true (whose engines quantize
  // internally; the checksum tolerance absorbs that). Runs checked or not,
  // so injection reaches unchecked backends too.
  void finish_sweep(std::span<const double> x_check, std::span<double> y,
                    std::size_t k, SweepVerdict* verdict) const;

 private:
  const AbftChecksum* abft_ = nullptr;
};

// Value-faithful backend: sweeps rf's packed operand row by row (the
// blocked accumulation order, bit for bit); it builds no plan. `tiles` > 1
// partitions rf and shards the rows by tile (bit-identical to untiled); the
// default follows $REFLOAT_TILES. The overloads taking a TiledPlan* borrow
// an existing partition of rf (nullptr = untiled); the caller keeps it
// alive.
std::unique_ptr<SweepBackend> make_value_backend(
    const RefloatMatrix& rf, int tiles = default_tile_count());
std::unique_ptr<SweepBackend> make_value_backend(const RefloatMatrix& rf,
                                                 const TiledPlan* tiled);

// Noisy backend (Fig. 10 RTN model): multiplicative Gaussian noise of
// deviation `sigma` on every nonzero per-block row partial, drawn from one
// counter-based stream per (seed, sequence, grid block-row) in serial
// (block, row) order with zero partials skipped — so the result does not
// depend on threads or tiles. With an empty SweepContext, column 0 of sweep
// number s draws the streams of (seed, sequence = s), and column j > 0
// forks the seed by kColumnForkSalt. The backend sweeps rf's packed
// operand one grid band at a time and builds no plan: the entries of a row
// that share a block column form that block's partial, and a prefix over
// the band's per-block nonzero counts ranks each partial in the draw order.
// `tiles` defaults as for the value backend.
std::unique_ptr<SweepBackend> make_noisy_backend(
    const RefloatMatrix& rf, double sigma, std::uint64_t seed,
    int tiles = default_tile_count());
std::unique_ptr<SweepBackend> make_noisy_backend(const RefloatMatrix& rf,
                                                 double sigma,
                                                 std::uint64_t seed,
                                                 const TiledPlan* tiled);
// (The bit-true factory lives in src/hw/bit_true_backend.h — core/ stays
// below hw/ in the layer diagram.)

}  // namespace refloat::core

// Minimal MatrixMarket reader for the SuiteSparse originals the generated
// suite stands in for. Scope is deliberately the subset the collection's
// solver matrices actually use: "matrix coordinate real|integer
// general|symmetric" (crystm03 and Dubcova2 — the first two targets — are
// both coordinate real symmetric). Everything else (array, complex,
// pattern, hermitian, skew-symmetric) is rejected with a parse error
// rather than silently misread.
//
// gen::load_or_build probes for `<data_dir>/<name>.mtx` before the binary
// .csr cache and the generator: drop a downloaded original next to the
// cache and the suite serves the real matrix, logging its block-layout
// stats (how the paper's 2^b x 2^b blocking sees it) on load.
#pragma once

#include <cstddef>
#include <string>

#include "src/sparse/csr.h"

namespace refloat::gen {

// Parses a MatrixMarket coordinate file (real or integer values; general
// or symmetric). Symmetric files store the lower triangle; off-diagonal
// entries are mirrored. Returns false with a one-line reason in *error
// (when non-null) on any header/shape/index violation.
bool load_matrix_market(const std::string& path, sparse::Csr* out,
                        std::string* error = nullptr);

// How the ReFloat blocking sees a matrix: the occupancy of the 2^b x 2^b
// block grid its block index will hold (block_side = 2^b).
struct BlockLayoutStats {
  sparse::Index rows = 0;
  sparse::Index cols = 0;
  long long nnz = 0;
  int block_side = 0;
  long long grid_rows = 0;         // ceil(rows / block_side)
  long long nonempty_blocks = 0;   // blocks holding >= 1 nonzero
  double mean_entries_per_block = 0.0;  // nnz / nonempty_blocks
  double block_fill = 0.0;  // mean_entries_per_block / block_side^2
};

BlockLayoutStats block_layout_stats(const sparse::Csr& a, int block_side);

// Logs the stats one-line (RF_LOG_INFO) — the "print block-layout stats on
// load" hook of the .mtx path.
void log_block_layout(const char* name, const sparse::Csr& a,
                      int block_side);

}  // namespace refloat::gen
